"""The benchmark's own test.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py

It is not part of the package's test suite (``testpaths`` names ``tests``),
because each traced run takes ten to twenty seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def _traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {name: m["value"] for name, m in result["metrics"].items()}


def _is_count(name: str) -> bool:
    last = name.rsplit(".", 1)[-1]
    return (last in ("calls", "fibers_built", "coeff_products") or "_per_" in last) \
        and not name.startswith("trace.")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(workload):
    first, second = _traced_run(workload, 7), _traced_run(workload, 7)
    counts = {name: value for name, value in first.items() if _is_count(name)}
    assert counts and counts == {name: second[name] for name in counts}
    assert first["cli.main.calls"] > 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(workload):
    work = ROOT / ".perfbench-work" / f"selftest-{workload}"
    try:
        def inputs(seed, tag):
            batch = workloads.generate(workload, seed, work / tag)
            files = {p.name: p.read_text() for p in sorted((work / tag).iterdir())}
            layout = [(op.argv[0], op.expect.get("pmax"), op.expect.get("invalid"))
                      for op in batch.ops]
            return files, (layout, batch.items)

        a, a_layout = inputs(1, "a")
        again, _ = inputs(1, "again")
        b, b_layout = inputs(2, "b")
        assert a == again
        assert a != b
        assert a_layout == b_layout  # the seed picks contents, not the slot plan
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
