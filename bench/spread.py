"""Run-to-run spread of the end-to-end metrics over several workload seeds.

    python3 bench/spread.py --workload optimize --seeds 1 2 3 4 5 [--seconds S]

Runs ``run.py`` once per seed (untraced, one after another) and prints,
per metric, the median and the quartile distance (Q3 - Q1, from
``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound from ``BENCHMARK.json``. The runs are kept
in ``bench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload]
        cmd += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        lines = proc.stdout.splitlines()
        report, line = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "line": line, "digest": report["result"]["digest"]})
        values = {k: round(v["value"], 4) for k, v in line["metrics"].items()}
        print(f"seed {seed}: correct={line['correct']} digest={runs[-1]['digest'][:16]} {values}",
              flush=True)

    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound/3':>8}")
    for metric in spec["end_to_end"]:
        values = [r["line"]["metrics"][metric["name"]]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"{metric['name']:<14} {med:>12.5g} {(q3 - q1) / med:>8.3f} {metric['bound'] / 3:>8.3f}")
    out = BENCH / "out" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["line"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
