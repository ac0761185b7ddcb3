"""Any spec or scan document, valid or not, ends in an exit code 0-3 and never a traceback."""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from isofib.cli import main  # noqa: E402

# primes around the bounds (group orders, the zeta oracle at 13, the closed forms at
# 100003) and small counts and coefficients, so that every case stays cheap
PRIMES = st.sampled_from([5, 7, 11, 13, 17, 97, 1009, 100003, 1000003])
COUNT = st.sampled_from([0, 1, 2, 2, 3, 4, 4, 6])
COEFF = st.sampled_from([1, 0, 2, 3, -1, 12])
# j = 0, j = 1728 and generic models, and the singular a = b = 0
CURVES = st.sampled_from([(0, 1), (1, 0), (1, 1), (2, 3), (0, 2), (3, 0), (-1, 12), (0, 0)])
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.text(max_size=3), st.just([1]))
ALLOWED = {"trivial": (), "C2": ("a2",), "C3": ("a3p", "a3m"), "C4": ("a4p", "a4m", "a2"),
           "C6": ("a6p", "a6m", "a3p", "a3m", "a2")}


@st.composite
def documents(draw):
    """Mostly well-typed documents; one in ten has a field broken or a foreign key."""
    rotation = draw(st.sampled_from(sorted(ALLOWED)))
    doc = {"p": draw(PRIMES), "R": rotation,
           "ram": {key: draw(COUNT) for key in ALLOWED[rotation] if draw(st.booleans())}}
    if draw(st.booleans()):
        doc["genus_base"] = draw(st.integers(0, 2))
    if draw(st.booleans()):
        doc["T"] = draw(st.sampled_from([[1, 1], [2, 1], [2, 2], [3, 1], [5, 1]]))
    if draw(st.booleans()):
        doc["E"] = dict(zip("ab", draw(CURVES)))
    if rotation == "C2" and draw(st.booleans()):
        doc["branch"] = draw(st.lists(COEFF, min_size=1, max_size=9))
        if draw(st.booleans()):  # make the branch count match the polynomial
            degree = len(doc["branch"]) - 1
            doc["ram"] = {"a2": degree + degree % 2}
    if draw(st.integers(0, 9)) == 7:
        key = draw(st.sampled_from(["a5", "ram", "E", "branch", "T", "genus_base", "R", "p"]))
        doc[key] = draw(JUNK)
    return doc


SETS = st.lists(
    st.sampled_from(
        ["E=ordinary", "E=nonordinary", "E=1", "C=ordinary", "C=0", "C=2", "Dp=ordinary",
         "Dp=nonordinary", "Dp=0", "Dp=3", "Dpp=0", "Dpp=1", "Dppp=0", "Dppp=2", "X=1",
         "E=maybe", "Enope"]
    ),
    max_size=4,
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(document=documents(), sets=SETS, command=st.sampled_from(["invariants", "decide"]),
       fmt=st.sampled_from(["text", "json"]))
def test_any_document_exits_with_a_code(document, sets, command, fmt):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "spec.json"
        path.write_text(json.dumps(document))
        argv = [command, str(path), "--format", fmt]
        if command == "decide":
            argv += [arg for token in sets for arg in ("--set", token)]
        assert main(argv) in (0, 1, 2, 3)


# integral models: generic, j = 0, j = 1728, and the singular (0, 0) and (-3, 2)
SCAN_CURVES = st.sampled_from([(1, 1), (0, 1), (1, 0), (-7, 6), (2, 3), (0, 0), (-3, 2)])


@st.composite
def scan_documents(draw):
    """A curve, often a branch of degree 0-8; one in five has a field broken or a foreign key."""
    doc = {"E": dict(zip("ab", draw(SCAN_CURVES)))}
    if draw(st.booleans()):
        doc["branch"] = draw(st.lists(COEFF, min_size=1, max_size=9))
    if draw(st.integers(0, 4)) == 4:
        key = draw(st.sampled_from(["E", "E.a", "branch", "X"]))
        if key == "E.a":
            doc["E"]["a"] = draw(JUNK)
        else:
            doc[key] = draw(JUNK)
    return doc


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(document=scan_documents(), pmax=st.integers(-5, 100),
       fmt=st.sampled_from(["tsv", "json"]))
def test_any_scan_document_exits_with_a_code(document, pmax, fmt):
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "scan.json"
        path.write_text(json.dumps(document))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["scan", str(path), "--pmax", str(pmax), "--format", fmt])
    assert code in (0, 1, 2, 3)
    if code == 0 and fmt == "json":
        payload = json.loads(out.getvalue())
        good = [row for row in payload["rows"] if row["good"]]
        ordinary = [row for row in good if row["verdict"]]
        assert payload["good_primes"] == len(good)
        assert payload["ordinary_primes"] == len(ordinary)
        fraction = Fraction(len(ordinary), len(good)) if good else None
        expected = None if fraction is None else [fraction.numerator, fraction.denominator]
        assert payload["ordinary_fraction"] == expected
