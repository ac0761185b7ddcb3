"""Any command line built from a small alphabet gives the same exit code, stdout and
stderr as when the whole argparse tree reads it."""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isofib import cli  # noqa: E402

# command -> (the pieces every plain call of it has, pieces a plain call may add); a piece
# is a token or a flag with its value, and SPEC and SCAN stand for the two documents
COMMANDS = {
    "invariants": ([["SPEC"]], [["--format", "json"], ["--format", "text"]]),
    "decide": ([["SPEC"]], [["--set", "E=ordinary"], ["--set", "Dp=0"], ["--format", "json"]]),
    "verify-examples": ([], []),
    "scan": ([["SCAN"], ["--pmax", "30"]],
             [["--pmax", " 7 "], ["--pmax", "3_0"], ["--format", "json"], ["--format", "tsv"]]),
}
ANY_PIECE = st.sampled_from([
    ["SPEC"], ["SCAN"], ["x"], [""], ["-"], ["-5"], ["-h"], ["--"], ["scan"],
    ["--pmax", "30"], ["--pmax", "x"], ["--pmax", "-5"], ["--pmax", ""], ["--pmax=30"],
    ["--pmax"], ["--pm", "30"], ["--format", "xml"], ["--format=json"], ["--format"],
    ["--form", "json"], ["--set", "Enope"], ["--set", "-x"], ["--set=E=ordinary"], ["--set"],
    ["--bogus", "1"],
])


@st.composite
def command_lines(draw):
    """A command's pieces in any order, often with a few of any piece; one line in five
    starts with no command."""
    first = draw(st.sampled_from(sorted(COMMANDS) + [None]))
    if first is None:
        first = draw(st.sampled_from(["sc", "bogus", "-h", "--", "-", "SPEC"]))
        required, optional = [], [["--pmax", "30"]]
    else:
        required, optional = COMMANDS[first]
    pieces = required + draw(st.lists(ANY_PIECE, max_size=2))
    if optional:
        pieces += draw(st.lists(st.sampled_from(optional), max_size=2))
    return [first] + [token for piece in draw(st.permutations(pieces)) for token in piece]


def _run(argv):
    """(exit code, stdout, stderr) of main(argv); a SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_any_command_line_behaves_as_through_the_whole_parser_tree(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # help wraps to the terminal width
    documents = {"SPEC": tmp_path / "spec.json", "SCAN": tmp_path / "scan.json"}
    documents["SPEC"].write_text(json.dumps({"p": 5, "R": "C2", "ram": {"a2": 2},
                                             "E": {"a": 0, "b": 1}, "branch": [0, 1]}))
    documents["SCAN"].write_text(json.dumps({"E": {"a": 2, "b": 3}}))
    plain = []

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(line=command_lines())
    def check(line):
        argv = [str(documents.get(token, token)) for token in line]
        plain.append(cli._plain_arguments(argv) is not None)
        got = _run(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parse_command_line",
                          lambda argv: cli.build_parser().parse_args(argv))
            assert got == _run(argv), argv

    check()
    assert 20 <= sum(plain) < len(plain)
