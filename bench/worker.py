"""One fresh interpreter: set a workload up, then (optionally) measure it.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src``. Protocol on standard output:

* ``ready <failed>`` once the package is imported, the inputs are
  generated and one warm-up call has run (``failed`` is 0 or 1);
* with ``--setup-only`` the worker exits there; otherwise one JSON line
  with the loop statistics follows.

With ``--trace 1`` the worker measures half the time untraced and half
traced, so the tracing overhead and the output digest of both halves come
from the same process.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy

from layers import changed_names, install, per_layer, snapshot
from tracer import Tracer, root_ns
from workloads import WORKLOADS, digest_of


# Spans kept in memory by one traced loop (about 26 bytes each); the traced
# loop ends early, at a pass boundary, once it holds this many.
MAX_SPANS = 1_000_000


def loop(workload, seconds: float, full=lambda: False) -> dict:
    """Closed loop over whole passes until ``seconds`` have elapsed or ``full()``.

    Latency covers the call only; checks run after it, inside the loop's
    wall time. The digest and the evaluation counts come from pass 0 only,
    so they do not depend on how many passes fit in the time.
    """
    clock = time.perf_counter_ns
    latencies: list[int] = []
    first: list[bytes] = []
    errors: list[str] = []
    stats = dict(calls=0, failed=0, trials=0, passed=0, verdicts=0, runs=0, evals=0)
    begin = clock()
    deadline = begin + int(seconds * 1e9)
    p = 0
    while True:
        for inp in workload.inputs(p):
            stats["calls"] += 1
            t0 = clock()
            try:
                out = workload.call(inp)
            except Exception as exc:  # a failed call is counted, not fatal
                latencies.append(clock() - t0)
                stats["failed"] += 1
                errors.append(f"call {inp!r}: {exc!r}")
                continue
            latencies.append(clock() - t0)
            try:
                checked = workload.check(inp, out)
            except Exception as exc:
                error = f"check {inp!r}: {exc!r}"
            else:
                error = checked.error and f"check {inp!r}: {checked.error}"
            if error:
                stats["failed"] += 1
                errors.append(error)
                continue
            stats["trials"] += checked.trials
            if checked.passed is not None:
                stats["verdicts"] += 1
                stats["passed"] += checked.passed
            if p == 0:
                first.append(checked.digest)
                stats["runs"] += checked.runs
                stats["evals"] += checked.evals
        p += 1
        if clock() >= deadline or full():
            break
    wall = clock() - begin
    ms = sorted(x / 1e6 for x in latencies)
    return dict(
        stats,
        passes=p,
        wall_ns=wall,
        digest=digest_of(first),
        errors=errors[:5],
        **latency_summary(ms),
    )


def latency_summary(ms: list[float]) -> dict:
    """Median, p90 and p99 of sorted latencies, with the sample count.

    A tail percentile is only meaningful with at least 10 samples beyond
    it: 100 samples for p90, 1000 for p99.
    """
    q = statistics.quantiles(ms, n=100) if len(ms) > 1 else ms * 99
    return {"samples": len(ms), "p50_ms": statistics.median(ms), "p90_ms": q[89], "p99_ms": q[98]}


def traced(workload, seconds: float, spans_path: Path) -> dict:
    """Untraced then traced loop of ``seconds / 2`` each; per-layer metrics."""
    plain = loop(workload, seconds / 2)
    before = snapshot()
    with Tracer() as tracer:
        install(tracer)
        loop_t = loop(workload, seconds / 2, lambda: len(tracer.name) >= MAX_SPANS)
    changed = changed_names(before)
    summary = tracer.summary()
    loop_t["root_ns"] = root_ns(tracer.parent, tracer.start, tracer.end)
    tracer.dump(spans_path)
    self_total = sum(row["self_ns"] for row in summary.values())
    remainder = loop_t["wall_ns"] - loop_t["root_ns"]
    reconciled = (
        remainder >= 0
        and self_total + remainder == loop_t["wall_ns"]
        and all(row["min_self_ns"] >= 0 for row in summary.values())
    )
    evals_per_run = loop_t["evals"] / loop_t["runs"] if loop_t["runs"] else 0.0
    metrics = per_layer(summary, loop_t, evals_per_run, loop_t["p50_ms"] - plain["p50_ms"])
    return dict(
        untraced=plain,
        traced=loop_t,
        spans=summary,
        span_count=len(tracer.name),
        self_ns_total=self_total,
        remainder_ns=remainder,
        reconciled=reconciled,
        restored=not changed,
        changed=changed,
        per_layer=metrics,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.scratch)
    warm = workload.inputs(0)[0]
    try:
        warm_failed = workload.check(warm, workload.call(warm)).error is not None
    except Exception as exc:
        print(f"warm-up call failed: {exc!r}", file=sys.stderr)
        warm_failed = True
    print(f"ready {int(warm_failed)}", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(workload, args.seconds, args.spans)
    else:
        result = loop(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["numpy"] = numpy.__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
