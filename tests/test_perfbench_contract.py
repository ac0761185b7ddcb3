"""The benchmark under perfbench/ names isofib functions; keep those names resolvable.

The traced benchmark run wraps every entry of ``perfbench/tracing.py``'s
``TARGETS``, and ``perfbench/checks.py`` imports isofib directly.  A renamed
or deleted function would otherwise only surface when the benchmark runs.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve():
    tracing = _load("tracing")
    assert tracing.TARGETS
    for module, qualname in tracing.TARGETS:
        home = importlib.import_module(f"isofib.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert callable(getattr(home, cls_name).__dict__.get(attr)), qualname
        else:
            assert callable(getattr(home, qualname, None)), f"{module}.{qualname}"


def test_benchmark_checks_import(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        checks = _load("checks")
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("isofib"):
                del sys.modules[name]
    assert callable(checks.hasse_poly_z2)
