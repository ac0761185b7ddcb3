"""Closed-loop client: one process, one thread, one op in flight at a time.

Run by ``run.py`` in a fresh interpreter::

    python3 perfbench/worker.py PLAN.json RESULT.json

The plan names the source tree, the ops (argument lists for
``isofib.cli.main``), the measuring time and whether to trace.  The worker
repeats the whole batch until the next repetition would overrun the
measuring time, and always runs at least ``min_reps`` repetitions.  With
tracing on, traced and untraced repetitions alternate, traced first, so
the difference of their wall times is the tracing overhead.

Each op's stdout and stderr are captured; the op's latency is the wall time
of the ``main`` call.  The reference computation (``reference.py``) runs
before and after each batch and between ops every REF_INTERVAL_S, outside
the ops, and its own time is left out of the batch's wall time.  The result
file holds, per repetition, the wall time, each op's start, latency, exit
code and stdout SHA-256, and each reference run's midpoint and duration;
the stdout of the first repetition in full (for the checks); the process's
peak RSS after ``min_reps`` repetitions; and, for traced repetitions, the
per-target aggregates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

from reference import reference_seconds

REF_EDGE = 3  # reference runs before and after each batch
REF_INTERVAL_S = 0.25  # plus one after any op that ends this long after the last


def _reference(samples: list[list[float]]) -> float:
    """Run the reference once and record (midpoint, duration); return the
    time it took in all."""
    start = perf_counter()
    duration = reference_seconds()
    end = perf_counter()
    samples.append([(start + end) / 2, duration])
    return end - start


def run_batch(cli, ops: list[list[str]], recorder=None, keep_outputs=True) -> dict:
    starts, latencies, codes, digests, outputs, errors, refs = [], [], [], [], [], [], []
    for _ in range(REF_EDGE):
        _reference(refs)
    start = last_ref = perf_counter()
    in_refs = 0.0
    for op_id, argv in enumerate(ops):
        if recorder is not None:
            recorder.op = op_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
            except Exception:  # keep the batch going; the op counts as failed
                code = "exception"
                err.write(traceback.format_exc())
            t1 = perf_counter()
        starts.append(t0)
        latencies.append(t1 - t0)
        codes.append(code)
        text = out.getvalue()
        digests.append(hashlib.sha256(text.encode()).hexdigest())
        if keep_outputs:
            outputs.append(text)
            errors.append(err.getvalue())
        if t1 - last_ref >= REF_INTERVAL_S:
            in_refs += _reference(refs)
            last_ref = perf_counter()
    wall = perf_counter() - start - in_refs
    for _ in range(REF_EDGE):
        _reference(refs)
    return {"wall_s": wall, "starts": starts, "latencies": latencies, "codes": codes,
            "sha256": digests, "outputs": outputs, "stderr": errors, "refs": refs,
            "ref_s": statistics.median(duration for _, duration in refs)}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import isofib.cli as cli
    import tracing

    recorder = tracing.SpanRecorder() if plan["trace"] else None
    ops, seconds = plan["ops"], plan["seconds"]
    reps, counts, last_spans = [], None, []
    begin = perf_counter()
    while True:
        traced = recorder is not None and len(reps) % 2 == 0
        if traced:
            recorder.install()
            try:
                rep = run_batch(cli, ops, recorder, keep_outputs=not reps)
            finally:
                recorder.uninstall()
            last_spans, rep_counts = recorder.take()
            rep["layers"] = tracing.aggregate(last_spans, recorder.names)
            if counts is None:
                counts = rep_counts
        else:
            rep = run_batch(cli, ops, keep_outputs=not reps)
        rep["traced"] = traced
        reps.append(rep)
        if len(reps) == plan["min_reps"]:
            # every run gets this far, so the peak does not depend on how
            # many batches the host's speed lets the run complete
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = perf_counter() - begin
        if len(reps) >= plan["min_reps"] and elapsed + rep["wall_s"] > seconds:
            break

    if plan["spans_out"]:
        tracing.write_spans(plan["spans_out"], last_spans, recorder.names)
    result = {"reps": reps, "peak_rss_kb": rss_kb, "counts": counts or {},
              "spans_per_rep": len(last_spans)}
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
