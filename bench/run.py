"""Benchmark entry point: set-up samples, one measured run, one result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; paths resolve from this file. The package is imported
from the checkout's ``src`` in fresh worker interpreters (``worker.py``),
never installed and never written to. Workload names are the ones listed
in ``BENCHMARK.json``.

``--trace 0``: ``SETUP_SAMPLES`` fresh interpreters each time import,
input generation and one warm-up call (``setup_s`` is their median); the
last of them then runs the closed loop for ``S`` seconds and reports the
end-to-end metrics. ``--trace 1``: one interpreter runs ``S/2`` seconds
untraced and ``S/2`` traced and reports the per-layer metrics.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full report (provenance, latency percentiles with sample counts, the
output digest, span totals), which is also written to ``bench/out/``.
Exits 2 without a result when the checkout has no package source or a
worker dies.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
# Every worker is killed by then, so a run always ends within 180 s.
RUN_DEADLINE_S = 170.0


class WorkerError(Exception):
    pass


def workload_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def worker_env() -> dict[str, str]:
    # No bytecode caches are written into src/: the package is compiled at
    # every set-up, a fixed cost of a few milliseconds.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], deadline: float) -> tuple[float, bool, dict | None]:
    """Start one worker; return (seconds until ready, warm-up failed, result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    started = time.perf_counter()
    with subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT
    ) as proc:
        killer = threading.Timer(max(0.0, deadline - started), proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - started
            lines = proc.stdout.read().splitlines()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise WorkerError(f"worker {args} exited with {proc.returncode}")
    result = json.loads(lines[-1]) if lines else None
    return setup, ready.split()[1] != "0", result


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def end_to_end(setups: list[float], result: dict) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "call_ms_p50": (result["p50_ms"], "ms"),
        "call_ms_p90": (result["p90_ms"], "ms"),
        "trials_per_s": (result["trials"] / (result["wall_ns"] / 1e9), "1/s"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "oob" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'oob'}", file=sys.stderr)
        return 2
    if args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; choose from {workload_names()}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    deadline = time.perf_counter() + RUN_DEADLINE_S
    load_before = os.getloadavg()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    common += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups: list[float] = []
    warm_failed = 0
    try:
        with tempfile.TemporaryDirectory(dir=OUT) as scratch:
            common += ["--scratch", scratch]
            if args.trace:
                common += ["--spans", str(OUT / f"{args.workload}.spans")]
            for _ in range(SETUP_SAMPLES - 1 if not args.trace else 0):
                setup, failed, _ = spawn([*common, "--setup-only"], deadline)
                setups.append(setup)
                warm_failed += failed
            setup, failed, result = spawn(common, deadline)
            setups.append(setup)
            warm_failed += failed
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        loops = [result["untraced"], result["traced"]]
        checks_ok = (
            result["reconciled"]
            and result["restored"]
            and loops[0]["digest"] == loops[1]["digest"]
        )
        metrics = result["per_layer"]
    else:
        loops = [result]
        checks_ok = True
        metrics = end_to_end(setups, result)
    attempted = len(setups) + sum(lp["calls"] for lp in loops)
    failed = warm_failed + sum(lp["failed"] for lp in loops)

    report = {
        "workload": args.workload,
        "provenance": {
            "git_commit": git_commit(),
            "python": platform.python_version(),
            "numpy": result["numpy"],
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "platform": platform.platform(),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "seed": args.seed,
            "argv": sys.argv,
        },
        "setup_samples_s": setups,
        "failed_ratio": failed / attempted,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    line = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
