"""Monte Carlo verification harnesses built on exact conditional laws.

The central tool is the conditional-maximum oracle: given any finite set of
evaluations of W covering t = 0 and t = 1, one bridge-maximum draw per
consecutive pair, maximized over pairs, is an exact sample of
M = sup_{[0,1]} W conditioned on those evaluations. No discretization bias
enters anywhere; every check here compares exact samples against the bound
under test.

Every harness returns a :class:`VerificationReport` with raw counts, the
theoretical bound, a Wilson confidence limit where a rate is being tested,
and a pass verdict. Trial j of a suite seeded with s always uses the child
seed ``derive_seed(s, j)``, so suites are reproducible trial-by-trial and
safe to parallelize (counts reduce by summing).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .brownian import bridge_max_from_uniforms, new_path
# Kept only as the benchmark tracer's hook target until the next benchmark change retires it.
from .brownian import bridge_max_sample
from .optimizer import eta, run_oob, run_oob_on_path
from .rng import RandomSource, derive_seed

__all__ = [
    "MAX_GRID_DEPTH",
    "VerificationReport",
    "Z95",
    "baseline_separation",
    "conditional_max_samples",
    "event_c_check",
    "lemma3_mc",
    "pac_estimate",
    "wilson_ci",
]

# Two-sided 95% standard normal quantile, Phi^-1(0.975).
Z95 = 1.959963984540054

# Stream tags for auxiliary draws that must not collide with trial seeds.
_ORACLE_TAG = 0x6F7261636C65  # "oracle"
_RUNNER_TAG = 0x72756E6E6572  # "runner"


def wilson_ci(successes: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays valid near 0 and 1 where the normal-approximation interval
    collapses, which matters here because several bounds under test are
    tiny (fifth-power rates).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    p = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt((p * (1.0 - p) + z2 / (4.0 * trials)) / trials) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class VerificationReport:
    """Summary of one Monte Carlo suite.

    ``violations / trials`` always equals ``empirical_rate``; what counts
    as a trial and a violation is suite-specific and recorded in
    ``metadata`` together with the exact comparison that decided
    ``passed``. ``wilson_upper_95`` is None for suites whose verdict is
    not a binomial-rate comparison.
    """

    trials: int
    violations: int
    empirical_rate: float
    bound: float
    wilson_upper_95: float | None
    passed: bool
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Flat dict with stable key order for serialization."""
        return {
            "trials": self.trials,
            "violations": self.violations,
            "empirical_rate": self.empirical_rate,
            "bound": self.bound,
            "wilson_upper_95": self.wilson_upper_95,
            "passed": self.passed,
            "metadata": self.metadata,
        }


def _evaluation_arrays(
    evaluations: list[tuple[float, float]]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate an evaluation set covering [0, 1] and split it into arrays."""
    if len(evaluations) < 2:
        raise ValueError("need at least the two endpoint evaluations")
    t = np.asarray([point[0] for point in evaluations], dtype=float)
    w = np.asarray([point[1] for point in evaluations], dtype=float)
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("evaluations must start at t=0 and end at t=1")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("evaluation times must be strictly increasing")
    return t, w


def conditional_max_samples(
    evaluations: list[tuple[float, float]], rng: RandomSource, count: int
) -> np.ndarray:
    """``count`` exact, independent draws of M = sup W over [0, 1] given evaluations.

    Consecutive evaluations pin independent bridges; one bridge-maximum
    draw per cell, maximized over cells, has exactly the conditional law
    of M, so every value is at least the best evaluation. Consumes
    ``count * cells`` uniforms in one call, row r holding the cell draws
    of sample r from left to right. The draws are row-major, so calls of
    ``count = a`` then ``count = b`` on one source return exactly the
    values of a single ``count = a + b`` call.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    t, w = _evaluation_arrays(evaluations)
    u = rng.uniforms_open((count, len(t) - 1))
    x = bridge_max_from_uniforms(u, np.diff(t), w[:-1], w[1:])
    return x.max(axis=1)


# Rows per block of oracle draws (:func:`pac_estimate`) and of grid trials
# (:func:`_grid_blocks`) are chosen so that one block holds about this many
# cells, which bounds the working set at any draw or trial count.
_BLOCK_CELLS = 1 << 15


def pac_estimate(
    epsilon: float, trials: int, oracle_draws_per_trial: int, seed: int
) -> VerificationReport:
    """Estimate the probability that a run's answer is more than epsilon low.

    Per trial: one optimizer run on a fresh path, then
    ``oracle_draws_per_trial`` conditional draws of M given that run's
    final evaluation set (continuing the trial path's own stream). Each
    draw with M - m_hat > epsilon counts as an exceedance. The claimed
    bound is that the exceedance probability is at most epsilon; the
    report passes when the empirical rate is within one Wilson 95%
    half-width of that. A run with ``cells`` evaluation cells draws its
    oracle samples ``max(1, _BLOCK_CELLS // cells)`` at a time; the draws
    are row-major, so the blocks see exactly the values of one call.
    """
    if trials < 1 or oracle_draws_per_trial < 1:
        raise ValueError("trials and oracle_draws_per_trial must be >= 1")
    exceedances = 0
    for j in range(trials):
        path = new_path(derive_seed(seed, j))
        result = run_oob_on_path(epsilon, path)
        evaluations = path.evaluations()
        block = max(1, _BLOCK_CELLS // result.n_evals)
        for start in range(0, oracle_draws_per_trial, block):
            count = min(block, oracle_draws_per_trial - start)
            samples = conditional_max_samples(evaluations, path.rng, count)
            exceedances += int(np.count_nonzero(samples - result.m_hat > epsilon))
    total = trials * oracle_draws_per_trial
    rate = exceedances / total
    upper = wilson_ci(exceedances, total)[1]
    slack = upper - rate
    return VerificationReport(
        trials=total,
        violations=exceedances,
        empirical_rate=rate,
        bound=epsilon,
        wilson_upper_95=upper,
        passed=rate <= epsilon + slack,
        metadata={
            "suite": "pac",
            "epsilon": epsilon,
            "runs": trials,
            "oracle_draws_per_run": oracle_draws_per_trial,
            "seed": seed,
            "comparison": "empirical_rate <= bound + (wilson_upper_95 - empirical_rate)",
        },
    )


# Deepest grid the grid suites accept: a depth-20 block row holds 2**20
# cells, about 8 MB per float array. Deeper grids would ask numpy for
# gigabytes before the first draw, so they are refused up front.
MAX_GRID_DEPTH = 20


def _grid_blocks(
    seed: int, trials: int, depth: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """W on the depth-``depth`` dyadic grid plus one exact sup draw per cell.

    Yields ``(w, sups)`` for consecutive blocks of trials, in trial order.
    Row i of a block is trial j: its own ``RandomSource(derive_seed(seed,
    j))`` draws ``normals(2**depth)`` and then ``uniforms_open(2**depth)``.
    ``w`` has shape ``(rows, 2**depth + 1)`` with ``w[:, 0] = 0`` and the
    in-order sums of the Gaussians scaled by ``sqrt(2**-depth)`` after the
    sum; ``sups`` has shape ``(rows, 2**depth)``, cell k's sup drawn from
    the bridge pinned at ``w[:, k]`` and ``w[:, k + 1]``. A block has
    ``max(1, _BLOCK_CELLS >> depth)`` rows, the last one fewer.
    """
    n = 1 << depth
    length = math.ldexp(1.0, -depth)
    block = max(1, _BLOCK_CELLS >> depth)
    for start in range(0, trials, block):
        rows = min(block, trials - start)
        z = np.empty((rows, n))
        u = np.empty((rows, n))
        for i in range(rows):
            rng = RandomSource(derive_seed(seed, start + i))
            z[i] = rng.normals(n)
            u[i] = rng.uniforms_open(n)
        w = np.zeros((rows, n + 1))
        np.cumsum(z, axis=1, out=w[:, 1:])
        w[:, 1:] *= math.sqrt(length)
        yield w, bridge_max_from_uniforms(u, length, w[:, :-1], w[:, 1:])


def lemma3_mc(h: int, eta: float, trials: int, seed: int) -> VerificationReport:
    """Check that E[near-optimal count at depth h] <= 6 * eta**2 * 2**h.

    Per trial: walk W on the depth-h grid, draw one exact sup per cell
    (normals, then uniforms, from the trial's own stream; see
    :func:`_grid_blocks`), take the maximum reference M as the max of those
    draws, and count grid points within eta of M. Given the grid, the
    cells are independent bridges, so the max of one exact draw per cell
    has exactly the conditional law of the global maximum: (grid, M) has
    its exact joint law and a finer walk would change nothing but the
    cost. Passes when mean count + 3 standard errors <= the bound; this is
    a one-sided bound check, so only overshoot fails it.

    In the report, ``violations`` is the summed count over trials, making
    ``empirical_rate`` the mean count per trial; ``wilson_upper_95`` is
    None since the statistic is a mean of small integers, not a rate.
    Requires 0 <= h <= ``MAX_GRID_DEPTH``.
    """
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    try:
        bound = math.ldexp(6.0 * eta * eta, h)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):
        raise ValueError(f"bound 6*eta**2*2**h overflows at eta={eta}, h={h}")
    if h > MAX_GRID_DEPTH:
        raise ValueError(f"h must be <= {MAX_GRID_DEPTH}, got {h}")
    counts = np.concatenate(
        [
            np.count_nonzero(w >= sups.max(axis=1)[:, None] - eta, axis=1)
            for w, sups in _grid_blocks(seed, trials, h)
        ]
    )
    mean = float(counts.mean())
    std_error = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    total = int(counts.sum())
    return VerificationReport(
        trials=trials,
        violations=total,
        empirical_rate=total / trials,
        bound=bound,
        wilson_upper_95=None,
        passed=mean + 3.0 * std_error <= bound,
        metadata={
            "suite": "lemma3",
            "h": h,
            "eta": eta,
            "seed": seed,
            "mean_count": mean,
            "std_error": std_error,
            "mean_plus_3se": mean + 3.0 * std_error,
            "comparison": "mean_count + 3*std_error <= bound",
        },
    )


def event_c_check(
    epsilon: float, check_depth: int, trials: int, seed: int
) -> VerificationReport:
    """Estimate how often some dyadic interval beats its optimistic bound.

    Per trial: walk W on the depth-``check_depth`` grid and draw one exact
    sup sample per finest cell (normals, then uniforms, from the trial's
    own stream; see :func:`_grid_blocks`). Sups of coarser dyadic
    intervals are the maxima of their cells' draws, reused consistently up
    the tree, so all (2**(check_depth+1) - 1) interval sups come from one
    coherent joint sample. The trial is a violation if any interval's sup
    exceeds its bound max(endpoints) + eta(epsilon, length). The
    theoretical bound on the violation probability is epsilon**5. Trials
    are checked a block at a time, level by level from the finest; the
    per-trial verdicts are those of checking each trial alone.

    Only depths h <= check_depth are examined, so the empirical rate is a
    lower bound for the untruncated event; deeper intervals contribute a
    rapidly vanishing tail. This caveat is recorded in the metadata.
    Requires 1 <= check_depth <= ``MAX_GRID_DEPTH``.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must satisfy 0 < epsilon <= 1/2, got {epsilon}")
    if check_depth < 1:
        raise ValueError(f"check_depth must be >= 1, got {check_depth}")
    if check_depth > MAX_GRID_DEPTH:
        raise ValueError(f"check_depth must be <= {MAX_GRID_DEPTH}, got {check_depth}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    widths = [eta(epsilon, math.ldexp(1.0, -h)) for h in range(check_depth + 1)]
    violations = 0
    for w, sups in _grid_blocks(seed, trials, check_depth):
        bad = np.zeros(len(w), dtype=bool)
        level = sups
        for h in range(check_depth, -1, -1):
            ends = w[:, :: 1 << (check_depth - h)]
            bad |= np.any(level > np.maximum(ends[:, :-1], ends[:, 1:]) + widths[h], axis=1)
            if h:
                level = np.maximum(level[:, 0::2], level[:, 1::2])
        violations += int(np.count_nonzero(bad))
    rate = violations / trials
    bound = epsilon**5
    upper = wilson_ci(violations, trials)[1]
    slack = upper - rate
    return VerificationReport(
        trials=trials,
        violations=violations,
        empirical_rate=rate,
        bound=bound,
        wilson_upper_95=upper,
        passed=rate <= bound + slack,
        metadata={
            "suite": "eventc",
            "epsilon": epsilon,
            "check_depth": check_depth,
            "seed": seed,
            "truncation": (
                "intervals of depth <= check_depth only; the empirical rate "
                "lower-bounds the untruncated violation probability"
            ),
            "comparison": "empirical_rate <= bound + (wilson_upper_95 - empirical_rate)",
        },
    )


def _uniform_grid(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Times k/n and values W(k/n) for k = 0..n of the path seeded ``seed``.

    Draws the n Gaussians in one batch and scales each by
    sqrt(t_k - t_{k-1}) before an in-order sum, as
    :meth:`BrownianPath.evaluate` does past its last point, so the values
    are bit-equal to ``new_path(seed)`` walked at k/n for k = 1..n.
    """
    t = np.arange(n + 1) / n
    w = np.zeros(n + 1)
    np.cumsum(np.sqrt(np.diff(t)) * RandomSource(seed).normals(n), out=w[1:])
    return t, w


def baseline_separation(
    epsilons: tuple[float, ...] = (0.05, 0.01),
    grid_sizes: tuple[int, ...] = tuple(2**k for k in range(4, 15)),
    trials: int = 101,
    oob_runs: int = 200,
    min_factor: float = 3.0,
    seed: int = 0,
) -> VerificationReport:
    """Compare grid sizes needed for target error against optimizer cost.

    For each grid size, the median conditional error M - m_hat is measured
    over ``trials`` fresh paths, m_hat being the best grid value (t = 0
    included) and M one exact conditional draw given the grid. Each grid
    is the one-batch walk of :func:`_uniform_grid`; its oracle draws one
    ``uniforms_open(n)`` from a separate stream, one uniform per cell from
    left to right. ``grid_sizes`` must be strictly increasing. For each
    target epsilon, in decreasing order, the smallest grid size whose
    median error is <= epsilon is divided by the optimizer's mean
    evaluation count at that epsilon. The suite passes when every target
    is reachable, the cost ratio strictly grows as epsilon shrinks, and
    the ratio at the smallest epsilon is at least ``min_factor``. One
    violation is counted per epsilon level that breaks its part of that
    contract.
    """
    if len(epsilons) < 1 or any(not 0.0 < e < 0.5 for e in epsilons):
        raise ValueError("epsilons must be non-empty with each in (0, 1/2)")
    if any(epsilons[i + 1] >= epsilons[i] for i in range(len(epsilons) - 1)):
        raise ValueError("epsilons must be strictly decreasing")
    if len(grid_sizes) < 1 or any(n < 1 for n in grid_sizes):
        raise ValueError("grid_sizes must be non-empty positive integers")
    if any(grid_sizes[i + 1] <= grid_sizes[i] for i in range(len(grid_sizes) - 1)):
        raise ValueError("grid_sizes must be strictly increasing")
    if trials < 1 or oob_runs < 1:
        raise ValueError("trials and oob_runs must be >= 1")

    medians = {}
    for i, n in enumerate(grid_sizes):
        level_seed = derive_seed(seed, i)
        errors = []
        for j in range(trials):
            trial_seed = derive_seed(level_seed, j)
            t, w = _uniform_grid(n, trial_seed)
            oracle = RandomSource(derive_seed(trial_seed, _ORACLE_TAG))
            u = oracle.uniforms_open(n)
            m = float(bridge_max_from_uniforms(u, np.diff(t), w[:-1], w[1:]).max())
            errors.append(m - float(w.max()))
        medians[n] = median(errors)

    ratios: list[float | None] = []
    mean_evals = []
    required = []
    violations = 0
    for level, epsilon in enumerate(epsilons):
        base = derive_seed(seed, _RUNNER_TAG + level)
        mean_n = sum(
            run_oob(epsilon, derive_seed(base, j)).n_evals for j in range(oob_runs)
        ) / oob_runs
        mean_evals.append(mean_n)
        n_req = next((n for n in grid_sizes if medians[n] <= epsilon), None)
        required.append(n_req)
        ratio = None if n_req is None else n_req / mean_n
        ratios.append(ratio)
        failed = ratio is None
        if not failed and level > 0:
            previous = ratios[level - 1]
            failed = previous is None or ratio <= previous
        if not failed and level == len(epsilons) - 1:
            failed = ratio < min_factor
        violations += failed
    levels = len(epsilons)
    return VerificationReport(
        trials=levels,
        violations=violations,
        empirical_rate=violations / levels,
        bound=min_factor,
        wilson_upper_95=None,
        passed=violations == 0,
        metadata={
            "suite": "baseline",
            "epsilons": list(epsilons),
            "grid_sizes": list(grid_sizes),
            "trials_per_grid": trials,
            "oob_runs": oob_runs,
            "seed": seed,
            "median_errors": {str(n): medians[n] for n in grid_sizes},
            "required_grid_n": required,
            "oob_mean_evals": mean_evals,
            "cost_ratios": ratios,
            "comparison": (
                "each epsilon reachable; cost_ratios strictly increasing; "
                "final ratio >= bound"
            ),
        },
    )
