"""isofib benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload scan-e --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout (the directory that holds
``src/isofib`` and ``BENCHMARK.json``).  It writes the workload's seeded
input files under ``.perfbench-work/``, times the CLI set-up in fresh
interpreters, drives ``isofib.cli.main`` from one closed-loop client in a
fresh worker process (``worker.py``), checks every answer outside the timed
region (``checks.py``) and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones named in ``BENCHMARK.json``; with
``--trace 1`` they are the per-layer ones, and the spans of the last traced
batch are written to ``.perfbench-out/``.

Exit code 2 means the source tree or ``BENCHMARK.json`` is missing; 1 means
the worker failed.  Neither prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import NOMINAL_S  # noqa: E402

SETUP_PROBES = 11  # fresh interpreters per run; the median is reported
MIN_REPS = 2  # batches per run, at least
PROBE_TIMEOUT_S = 30
WORKER_GRACE_S = 100  # beyond --seconds, for the batch that ends the run
REF_WINDOW_S = 2.0  # reference runs this close to an op calibrate it


def measure_setup(src: Path) -> tuple[float, float]:
    """Median calibrated and raw set-up time over fresh interpreters, after
    one warm-up (which may write bytecode caches, as a user's first run
    would)."""
    calibrated, raw = [], []
    for _ in range(SETUP_PROBES + 1):
        done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(src)],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        elapsed, ref_s = map(float, done.stdout.split())
        calibrated.append(elapsed * NOMINAL_S / ref_s)
        raw.append(elapsed)
    return statistics.median(calibrated[1:]), statistics.median(raw[1:])


def scale(rep: dict) -> float:
    """Factor from a batch's measured seconds to calibrated seconds."""
    return NOMINAL_S / rep["ref_s"]


def calibrated(rep: dict) -> list[float]:
    """The batch's op latencies, each scaled by the median of the reference
    runs within REF_WINDOW_S of the op (the host's speed changes within a
    batch, too).  The worker runs one at least every 0.25 s of ops, so every
    window holds one."""
    out = []
    for start, latency in zip(rep["starts"], rep["latencies"]):
        near = [d for t, d in rep["refs"]
                if start - REF_WINDOW_S <= t <= start + latency + REF_WINDOW_S]
        out.append(latency * NOMINAL_S / statistics.median(near))
    return out


def batch_wall(rep: dict) -> float:
    """Calibrated time the program spent on the batch: the sum of its ops."""
    return sum(calibrated(rep))


def op_latencies(reps: list[dict]) -> list[float]:
    """Each op's calibrated latency: the median over the run's batches."""
    return [statistics.median(column) for column in zip(*map(calibrated, reps))]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(level, value) of the highest percentile with ten ops beyond it."""
    ordered = sorted(latencies)
    return (len(ordered) - 10) / len(ordered), ordered[-11]


def check_outputs(batch: workloads.Batch, first: dict) -> tuple[list[list[str]], int]:
    """Per-op errors for the first batch and the good primes it scanned."""
    import checks  # imports isofib, which is on sys.path once main has found src

    unreadable = (ValueError, KeyError, TypeError, IndexError)  # output not in the CLI's shape
    errors, good_primes = [], 0
    ops = batch.ops
    if batch.workload == "specs":
        for i in range(0, len(ops), 2):
            try:
                pair = checks.check_spec_pair(
                    ops[i].expect,
                    (first["codes"][i], first["outputs"][i]),
                    (first["codes"][i + 1], first["outputs"][i + 1]))
            except unreadable as exc:
                pair = ([f"unreadable output: {exc!r}"],) * 2
            errors.extend(pair)
        return errors, 0
    for i, op in enumerate(ops):
        try:
            op_errors, good = checks.check_scan(op.expect, first["codes"][i], first["outputs"][i])
        except unreadable as exc:
            op_errors, good = [f"unreadable output: {exc!r}"], 0
        errors.append(op_errors)
        good_primes += good
    return errors, good_primes


def layer_metrics(result: dict, good_primes: int, batch_ops: int) -> dict[str, float]:
    traced = [rep for rep in result["reps"] if rep["traced"]]
    untraced = [rep for rep in result["reps"] if not rep["traced"]]
    first = traced[0]["layers"]
    out = {name: value for name, value in first.items() if name.endswith(".calls")}
    for name in first:
        if name.endswith("self_s"):
            out[name] = statistics.median(rep["layers"][name] * scale(rep) for rep in traced)
    out.update(result["counts"])
    for name in ("curves.hasse_invariant", "ffpoly.FpPolynomial.is_squarefree"):
        out[f"{name}.calls_per_prime"] = out[f"{name}.calls"] / good_primes if good_primes else 0.0
    out["fibration.validate_spec.calls_per_op"] = out["fibration.validate_spec.calls"] / batch_ops
    out["trace.wall_s"] = statistics.median(map(batch_wall, traced))
    out["trace.untraced_wall_s"] = statistics.median(map(batch_wall, untraced))
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.spans"] = result["spans_per_rep"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "isofib" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"perfbench: no src/isofib or BENCHMARK.json under {root}; "
              "run from the root of an isofib checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = root / ".perfbench-work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        batch = workloads.generate(args.workload, args.seed, work)
        setup_s, setup_raw_s = (None, None) if args.trace else measure_setup(src)
        spans_out = None
        if args.trace:
            (root / ".perfbench-out").mkdir(exist_ok=True)
            spans_out = str(root / ".perfbench-out" / f"spans-{args.workload}-s{args.seed}.jsonl")
        plan = {"src": str(src), "ops": [op.argv for op in batch.ops], "seconds": args.seconds,
                "trace": args.trace, "min_reps": MIN_REPS, "spans_out": spans_out}
        (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(work / "plan.json"),
             str(work / "result.json")],
            stdout=sys.stderr, timeout=args.seconds + WORKER_GRACE_S)
        if worker.returncode != 0:
            print(f"perfbench: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    reps = result["reps"]
    first = reps[0]
    errors, good_primes = check_outputs(batch, first)
    n_ops = len(batch.ops)
    failed = 0
    for rep in reps:
        for i in range(n_ops):
            same = rep["codes"][i] == first["codes"][i] and rep["sha256"][i] == first["sha256"][i]
            failed += bool(errors[i]) or not same
    attempted = n_ops * len(reps)
    for i, op_errors in enumerate(errors):
        for message in op_errors[:3]:
            print(f"perfbench: op {i} ({batch.ops[i].argv[0]}): {message}", file=sys.stderr)
        if first["stderr"][i] and first["codes"][i] not in (0, 1):
            print(first["stderr"][i], file=sys.stderr)

    if args.trace:
        values = layer_metrics(result, good_primes, n_ops)
    else:
        latencies = op_latencies(reps)
        level, tail_s = tail(latencies)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(map(batch_wall, reps)),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        print(f"# op_tail_ms is p{100 * level:.1f} over {n_ops} ops "
              f"(each the median of {len(reps)} batches)")
        raw_wall = statistics.median(rep["wall_s"] for rep in reps)
        ref_ms = 1000 * statistics.median(rep["ref_s"] for rep in reps)
        print(f"# uncalibrated: wall_s {raw_wall:.4f}, setup_s {setup_raw_s:.4f}; "
              f"reference median {ref_ms:.3f} ms (nominal {1000 * NOMINAL_S:.3f} ms)")
    digest = hashlib.sha256("".join(first["outputs"]).encode()).hexdigest()
    print(f"# {args.workload} seed {args.seed}: {n_ops} ops and {batch.items} items per batch, "
          f"{len(reps)} batches, failed_frac {failed / attempted:.4f}")
    print(f"# stdout sha256 of one batch: {digest}")
    print(f"# machine: nproc {len(os.sched_getaffinity(0))}, python {sys.version.split()[0]}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
