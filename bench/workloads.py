"""The three benchmark workloads: generated inputs, one call each, output checks.

Every workload is a closed loop with one caller. Inputs come in passes; the
inputs of pass ``p`` are a pure function of (workload, seed, p), so a
traced loop that starts again at pass 0 repeats the untraced loop's calls
exactly and must reproduce its output digest. Later passes use fresh seeds,
so repeating a pass never lets a cache in the package stand in for work.

The package only ever sees (epsilon, seed) pairs or CLI flags. Calls go
through module attributes (``optimizer.run_oob``, ``cli.main``,
``analysis.baseline_separation``) so that the tracer can wrap them.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from dataclasses import dataclass, replace
from pathlib import Path

from oob import analysis, cli, optimizer

# The CLI's default sweep grid (``oob sweep``).
EPSILONS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


@dataclass(frozen=True)
class Checked:
    """What the loop keeps of one call: digest bytes and the check verdict."""

    digest: bytes
    error: str | None
    trials: int
    passed: bool | None = None  # suite verdict; None when the call has none
    runs: int = 0  # optimizer runs made by the call
    evals: int = 0  # path evaluations made by those runs


def _pass_rng(workload: str, seed: int, p: int) -> random.Random:
    # String seeds hash with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{p}")


def h_max_reference(epsilon: float) -> int:
    """Smallest h with sqrt(2.5 d ln(2/(eps d))) <= eps at d = 2**-h (the paper's cap)."""
    for h in range(61):
        d = 2.0**-h
        if math.sqrt(2.5 * d * math.log(2.0 / (epsilon * d))) <= epsilon:
            return h
    raise ValueError(f"no depth reaches epsilon {epsilon}")


def check_run_result(epsilon: float, seed: int, result) -> str | None:
    """Stream-independent checks of one ``run_oob`` result; None when it passes."""
    trace = result.trace
    if result.epsilon != epsilon or result.seed != seed:
        return f"result echoes ({result.epsilon}, {result.seed}), asked ({epsilon}, {seed})"
    if result.h_max != h_max_reference(epsilon):
        return f"h_max {result.h_max} != {h_max_reference(epsilon)}"
    if result.n_evals != len(trace):
        return f"n_evals {result.n_evals} != len(trace) {len(trace)}"
    if result.n_evals > 2 ** (result.h_max + 1):
        return f"n_evals {result.n_evals} over the cap 2**{result.h_max + 1}"
    if not trace or trace[0][0] != 1.0:
        return "trace does not start at t = 1"
    if not 0.0 <= result.t_hat <= 1.0:
        return f"t_hat {result.t_hat} outside [0, 1]"
    best = max(0.0, max(w for _, w in trace))
    if result.m_hat != best:
        return f"m_hat {result.m_hat} != max(0, trace maximum) {best}"
    if result.t_hat == 0.0 and result.m_hat == 0.0:
        return None
    if (result.t_hat, result.m_hat) not in trace:
        return f"(t_hat, m_hat) = ({result.t_hat}, {result.m_hat}) is not an evaluation"
    return None


class Optimize:
    """``run_oob(eps, seed)`` over the sweep grid, 5 paired seeds per pass."""

    name = "optimize"
    seeds_per_pass = 5

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def inputs(self, p: int) -> list[tuple[float, int]]:
        rng = _pass_rng(self.name, self.seed, p)
        seeds = [rng.getrandbits(64) for _ in range(self.seeds_per_pass)]
        return [(eps, s) for s in seeds for eps in EPSILONS]

    def call(self, inp):
        return optimizer.run_oob(*inp)

    def check(self, inp, result) -> Checked:
        epsilon, seed = inp
        values = [result.t_hat, result.m_hat, *(x for pair in result.trace for x in pair)]
        digest = struct.pack(f"<2q{len(values)}d", result.n_evals, result.h_max, *values)
        return Checked(
            digest=digest,
            error=check_run_result(epsilon, seed, result),
            trials=1,
            runs=1,
            evals=result.n_evals,
        )


# One entry per Tier-1 grid criterion: (suite, flags, trials per call). Only
# the trial count is shrunk, to blocks of roughly equal work per call (about
# 15 ms each on a 2-core Xeon); the lemma3 oracle depth is left at the CLI
# default.
GRID_SUITES = (
    ("eventc", ["--epsilon", "0.5", "--depth", "10"], 60),
    ("lemma3", ["--depth", "6", "--eta", "0.1"], 60),
    ("lemma3", ["--depth", "8", "--eta", "0.05"], 18),
    ("lemma3", ["--depth", "10", "--eta", "0.05"], 3),
)


class GridSuites:
    """In-process ``oob verify eventc|lemma3`` with ``--out`` to a file."""

    name = "grid-suites"

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.out = scratch / "verify.json"

    def inputs(self, p: int) -> list[tuple[str, int, list[str]]]:
        rng = _pass_rng(self.name, self.seed, p)
        calls = []
        for suite, flags, trials in GRID_SUITES:
            argv = ["verify", suite, *flags, "--trials", str(trials)]
            argv += ["--seed", str(rng.getrandbits(64)), "--out", str(self.out)]
            calls.append((suite, trials, argv))
        return calls

    def call(self, inp):
        return cli.main(inp[2])

    def check(self, inp, code) -> Checked:
        suite, trials, _ = inp
        data = self.out.read_bytes()
        self.out.unlink()
        checked = Checked(digest=bytes([code]) + data, error=None, trials=trials)
        if code not in (0, 1):
            return replace(checked, error=f"exit code {code}")
        try:
            report = json.loads(data)
        except ValueError as exc:
            return replace(checked, error=f"--out is not JSON: {exc}")
        if report["trials"] != trials:
            return replace(checked, error=f"trials {report['trials']} != requested {trials}")
        if not report["violations"] >= 0:
            return replace(checked, error=f"violations {report['violations']} < 0")
        if report["metadata"]["suite"] != suite or report["passed"] != (code == 0):
            return replace(checked, error="suite name or verdict does not match the call")
        return replace(checked, passed=code == 0)


class Baseline:
    """``baseline_separation`` at its default epsilons and 16..16384 grids."""

    name = "baseline"
    trials = 1
    oob_runs = 2

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed

    def inputs(self, p: int) -> list[int]:
        return [_pass_rng(self.name, self.seed, p).getrandbits(64)]

    def call(self, seed: int):
        return analysis.baseline_separation(
            trials=self.trials, oob_runs=self.oob_runs, seed=seed
        )

    def check(self, seed: int, report) -> Checked:
        meta = report.metadata
        digest = json.dumps(report.to_json_dict(), sort_keys=True).encode()
        runs = self.oob_runs * len(meta["epsilons"])
        checked = Checked(
            digest=digest,
            error=None,
            trials=self.trials,
            passed=report.passed,
            runs=runs,
            evals=round(sum(meta["oob_mean_evals"]) * self.oob_runs),
        )
        grid = meta["grid_sizes"]
        errors = list(meta["median_errors"].values())
        if len(errors) != len(grid) or not all(math.isfinite(e) and e >= 0.0 for e in errors):
            return replace(checked, error=f"median errors not all finite and >= 0: {errors}")
        if not all(n is None or n in grid for n in meta["required_grid_n"]):
            return replace(checked, error=f"required_grid_n {meta['required_grid_n']} not in grid")
        if meta["trials_per_grid"] != self.trials or meta["oob_runs"] != self.oob_runs:
            return replace(checked, error="report does not echo the requested trials and runs")
        return checked


WORKLOADS = {w.name: w for w in (Optimize, GridSuites, Baseline)}


def digest_of(parts: list[bytes]) -> str:
    """sha256 over length-prefixed output bytes, in call order."""
    h = hashlib.sha256()
    for part in parts:
        h.update(struct.pack("<Q", len(part)))
        h.update(part)
    return h.hexdigest()
