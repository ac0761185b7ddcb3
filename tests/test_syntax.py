"""Every source file parses under the oldest supported grammar, and every export resolves.

Only Python 3.11 may be at hand when this runs, so the check covers syntax
alone: a standard-library API that is missing from 3.10 or changed in 3.12
still needs a run under that interpreter.
"""

import ast
from pathlib import Path

import isofib

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_under_the_python_3_10_grammar():
    files = sorted(
        path for part in ("src", "tests", "perfbench") for path in (ROOT / part).rglob("*.py")
    )
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_exported_name_resolves():
    assert len(set(isofib.__all__)) == len(isofib.__all__)
    for name in isofib.__all__:
        assert hasattr(isofib, name), name
