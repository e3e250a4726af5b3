"""Verification harnesses built on exact conditional laws.

The central tool is the conditional law of M = sup_{[0,1]} W given any
finite set of evaluations of W covering t = 0 and t = 1: the cells between
consecutive evaluations are independent bridges. The pac check computes
P(M > x | evaluations) exactly as a product over cells; the grid suites
draw one exact bridge maximum per cell, whose maximum over cells is an
exact sample of M. No discretization bias enters anywhere.

Every harness returns a :class:`VerificationReport` with its counts, the
theoretical bound, a Wilson confidence limit where a rate is being tested,
and a pass verdict. Run j of pac, seeded with s, uses the child seed
``derive_seed(s, j)``. The grid suites (lemma3, eventc, baseline) draw
their trials through :func:`_grid_blocks` from two streams per call, see
:func:`_grid_streams`.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
# Not np.median: its first call imports numpy.ma (~5.6 ms per process, same bits).
from statistics import median

import numpy as np

from .brownian import bridge_max_exceed_prob, bridge_max_from_uniforms
from .optimizer import eta, run_oob
from .rng import RandomSource, derive_seed

# Kept only as the benchmark tracer's hook targets until the next benchmark change retires them.
from .brownian import bridge_max_sample, new_path
from .optimizer import run_oob_on_path

__all__ = [
    "MAX_GRID_DEPTH",
    "VerificationReport",
    "baseline_separation",
    "event_c_check",
    "lemma3_mc",
    "pac_estimate",
]

# Two-sided 95% standard normal quantile, Phi^-1(0.975).
_Z95 = 1.959963984540054

# Stream tag of the baseline's optimizer runs, kept apart from trial seeds.
_RUNNER_TAG = 0x72756E6E6572  # "runner"

# The baseline suite's grid sizes, 16 to 16384 points in increasing order,
# its target epsilons in decreasing order, and the cost ratio it requires
# at the smallest one.
_GRID_SIZES = tuple(2**k for k in range(4, 15))
_EPSILONS = (0.05, 0.01)
_MIN_FACTOR = 3.0


def _wilson_ci(successes: float, trials: int) -> tuple[float, float]:
    """Wilson 95% score interval for a binomial proportion.

    Stays valid near 0 and 1 where the normal-approximation interval
    collapses, which matters here because several bounds under test are
    tiny (fifth-power rates). ``successes`` may be fractional: for a sum
    of independent [0, 1] variables, whose variance is at most that of
    Bernoulli trials with the same mean, the upper limit is conservative.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes must lie in [0, {trials}], got {successes}")
    p = successes / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2.0 * trials)) / denom
    half = _Z95 * math.sqrt((p * (1.0 - p) + z2 / (4.0 * trials)) / trials) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class VerificationReport:
    """Summary of one Monte Carlo suite.

    What counts as a trial and a violation is suite-specific and recorded
    in ``metadata`` together with the exact comparison that decided
    ``passed``; pac's ``violations`` is an expected count, not an integer.
    ``wilson_upper_95`` is None for suites whose verdict is not a
    binomial-rate comparison.
    """

    trials: int
    violations: float
    bound: float
    wilson_upper_95: float | None
    passed: bool
    metadata: dict

    @property
    def empirical_rate(self) -> float:
        """``violations / trials``."""
        return self.violations / self.trials

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


def _rate_report(
    trials: int, violations: float, bound: float, metadata: dict
) -> VerificationReport:
    """Report of a rate suite: passes when the Wilson 95% upper limit of
    ``violations`` in ``trials`` is at most ``bound``; ``metadata`` gains the comparison."""
    upper = _wilson_ci(violations, trials)[1]
    return VerificationReport(
        trials=trials,
        violations=violations,
        bound=bound,
        wilson_upper_95=upper,
        passed=upper <= bound,
        metadata={**metadata, "comparison": "wilson_upper_95 <= bound"},
    )


def _exceed_prob(evaluations: list[tuple[float, float]], x: float) -> float:
    """P(M > x) for M = sup W over [0, 1], given evaluations in increasing t.

    The evaluations must run from t = 0 to t = 1. The cells between
    consecutive ones are independent bridges, so M <= x exactly when no
    cell's maximum exceeds x: P(M > x) = 1 - prod(1 - p_cell), with p_cell
    from :func:`bridge_max_exceed_prob`, summed in log1p space so that a
    tiny probability keeps its digits. That function refuses times that
    do not strictly rise, values that are not finite and an x below any
    value; x equal to the best value gives exactly 1.
    """
    if len(evaluations) < 2:
        raise ValueError("need at least the two endpoint evaluations")
    t, w = np.asarray(evaluations, dtype=float).T
    if t[0] != 0.0 or t[-1] != 1.0:
        raise ValueError("evaluations must start at t=0 and end at t=1")
    p_cell = bridge_max_exceed_prob(t[:-1], t[1:], w[:-1], w[1:], x)
    with np.errstate(divide="ignore"):  # a cell with p_cell = 1 adds log1p(-1) = -inf
        return float(-np.expm1(np.log1p(-p_cell).sum()))


def pac_estimate(epsilon: float, trials: int, seed: int) -> VerificationReport:
    """Bound the probability that a run's answer is more than epsilon low.

    Per trial: one :func:`run_oob` on the trial seed ``derive_seed(seed, j)``,
    then the exact probability p_j = P(M - m_hat > epsilon | evaluations)
    given that run's evaluation set, W(0) = 0 plus the trace; nothing is
    drawn after the run. The runs are independent, so ``violations`` is
    sum(p_j), the expected number of failing runs, and ``empirical_rate``
    their mean. A [0, 1] variable has at most the variance of a Bernoulli
    of the same mean, so ``wilson_upper_95`` is the Wilson 95% upper limit
    of sum(p_j) successes in ``trials`` runs. The claimed bound is that the
    failure probability is at most epsilon; the report passes when that
    upper limit is at most epsilon.
    """
    expected = 0.0
    for j in range(trials):
        result = run_oob(epsilon, derive_seed(seed, j))
        expected += _exceed_prob([(0.0, 0.0), *sorted(result.trace)], result.m_hat + epsilon)
    return _rate_report(trials, expected, epsilon, {
        "suite": "pac",
        "epsilon": epsilon,
        "seed": seed,
        "violations": "sum over runs of P(M - m_hat > epsilon | the run's evaluations)",
    })


# Rows per block of grid trials (:func:`_grid_blocks`) are chosen so that
# one block holds about this many cells. The walk of a grid-suite call
# allocates its buffers once, a few blocks' worth, and a suite's temporaries
# hold one block at most, which bounds the working set at any trial count.
_BLOCK_CELLS = 1 << 15

# Deepest grid the grid suites accept: a depth-20 block row holds 2**20
# cells, about 8 MB per float array. Deeper grids would ask numpy for
# gigabytes before the first draw, so they are refused up front.
MAX_GRID_DEPTH = 20


def _grid_streams(seed: int) -> tuple[RandomSource, RandomSource]:
    """The Gaussian and the uniform stream of a grid-suite call seeded ``seed``."""
    return RandomSource(derive_seed(seed, 0)), RandomSource(derive_seed(seed, 1))


# (pid, executor) of the draw worker; see :func:`_draw_worker`.
_worker = None


def _draw_worker():
    """The one thread of this process that draws grid blocks ahead (see :func:`_grid_blocks`).

    Made on first use and kept for every later call; a forked child, whose
    copy of the parent's thread does not run, makes its own.
    """
    global _worker
    if _worker is None or _worker[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor  # imported here: oob run never needs it

        _worker = (os.getpid(), ThreadPoolExecutor(1, thread_name_prefix="oob-draw"))
    return _worker[1]


def _grid_blocks(
    gaussians: RandomSource, uniforms: RandomSource, trials: int, depth: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """W on the depth-``depth`` dyadic grid plus one exact sup draw per cell.

    Yields ``(w, sups)`` for consecutive blocks of ``trials`` trials, in
    trial order. Trial j is row j: with n = 2**depth, it takes Gaussians
    ``[j*n, (j+1)*n)`` of ``gaussians`` and the uniforms at the same
    indices of ``uniforms``, counted from where each stream stands. A
    block draws its Gaussians in one call and its uniforms in one
    ``uniforms_open`` call, which equal the same draws taken row by row,
    so neither the rows per block nor ``trials`` changes a trial's draws.
    Once the blocks are exhausted, each stream has advanced by exactly
    ``trials * n`` draws. ``w`` has shape ``(rows, n + 1)`` with
    ``w[:, 0] = 0`` and the in-order sums of the Gaussians scaled by
    ``sqrt(2**-depth)`` after the sum; ``sups`` has shape ``(rows, n)``,
    cell k's sup drawn from the bridge pinned at ``w[:, k]`` and
    ``w[:, k + 1]``. A block has ``_BLOCK_CELLS >> depth`` rows, at least
    one and at most ``trials``; the last may have fewer.

    The caller's thread draws the first block's Gaussians (``normals``) and
    every block's uniforms. Later blocks' Gaussians are drawn a block ahead
    by the process's one draw worker (:func:`_draw_worker`) while the
    caller walks, inverts and yields the block before, and the caller waits
    for them before it walks their block. So each stream is drawn in order
    by one thread at a time, every value is that of a single-threaded walk,
    and an error in the worker's draw is raised in the caller. A one-block
    call never uses the worker. The draws overlap only while the OS runs
    the worker on another core. The worker calls the generator's
    ``standard_normal`` directly, the call ``normals`` makes, so no patched
    ``normals`` (``bench/tracer.py`` nests its spans on one thread) runs
    off the caller's thread.

    The walk owns a call's only block buffers, one per role, allocated once
    for its largest block: the walk; the uniforms, each inverted in place
    into its cell's sup, so ``sups`` is a view of the uniform buffer; and
    the Gaussians of each block in flight (two buffers for more than one
    block), then the inversion's scratch. Each yielded pair is a view into
    them, valid until the consumer asks for the next block, so a consumer
    reduces a block before it advances. Closed or dropped early, the
    generator first waits for the draw in flight: the Gaussian stream then
    stands one block past the last block yielded, and no thread writes to
    it any more.
    """
    n = 1 << depth
    length = math.ldexp(1.0, -depth)
    block = max(1, min(trials, _BLOCK_CELLS >> depth))
    sizes = [min(block, trials - start) for start in range(0, trials, block)]
    walk = np.zeros((block, n + 1))
    u = np.empty((block, n))
    zs = [np.empty((block, n)) for _ in sizes[:2]]
    ahead = None
    try:
        for i, rows in enumerate(sizes):
            w = walk[:rows]
            steps = gaussians.normals((rows, n), out=zs[0][:rows]) if i == 0 else ahead.result()
            ahead = None
            if i + 1 < len(sizes):
                later = zs[(i + 1) % 2][: sizes[i + 1]]
                ahead = _draw_worker().submit(gaussians._gen.standard_normal, later.shape, out=later)
            np.cumsum(steps, axis=1, out=w[:, 1:])
            w[:, 1:] *= math.sqrt(length)
            cells = uniforms.uniforms_open((rows, n), out=u[:rows])
            # The walk has used up the Gaussians, now the scratch; each uniform becomes its sup.
            yield w, bridge_max_from_uniforms(
                cells, length, w[:, :-1], w[:, 1:], out=cells, scratch=steps
            )
    finally:
        if ahead is not None:
            ahead.exception()  # waits; the draw's error, if any, no longer matters


def lemma3_mc(h: int, eta: float, trials: int, seed: int) -> VerificationReport:
    """Check that E[near-optimal count at depth h] <= 6 * eta**2 * 2**h.

    Per trial: walk W on the depth-h grid, draw one exact sup per cell
    (see :func:`_grid_blocks`), take M as the max of those draws, and count
    grid points within eta of M. Given the grid, the cells are independent
    bridges, so the max of one exact draw per cell has the conditional law
    of the global maximum: (grid, M) has its exact joint law and a finer
    walk would change nothing but the cost. Trials are counted a block at
    a time in temporaries of one block. Passes when mean count + 3
    standard errors <= the bound, a one-sided check: only overshoot fails.
    The bound holds for eta >= 2**-(h+1) and is false below about
    0.4 * 2**-h: at h = 0, eta = 0.1 the two endpoints alone give an exact
    mean of 2*erf(0.1/sqrt(2)) = 0.159, against a bound of 0.06.

    In the report, ``violations`` is the summed count over trials, making
    ``empirical_rate`` the mean count per trial; ``wilson_upper_95`` is
    None since the statistic is a mean of small integers, not a rate.
    Requires 0 <= h <= ``MAX_GRID_DEPTH``.
    """
    if h < 0:
        raise ValueError(f"grid depth h must be >= 0, got {h}")
    if h > MAX_GRID_DEPTH:
        raise ValueError(f"grid depth h must be <= {MAX_GRID_DEPTH}, got {h}")
    if not 0.0 <= eta < math.inf:
        raise ValueError(f"eta must be finite and >= 0, got {eta}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    bound = 6.0 * eta * eta * 2.0**h
    if not math.isfinite(bound):
        raise ValueError(f"bound 6*eta**2*2**h overflows at eta={eta}, h={h}")
    counts = np.concatenate(
        [
            np.count_nonzero(w >= sups.max(axis=1)[:, None] - eta, axis=1)
            for w, sups in _grid_blocks(*_grid_streams(seed), trials, h)
        ]
    )
    mean = float(counts.mean())
    std_error = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return VerificationReport(
        trials=trials,
        violations=int(counts.sum()),
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
    sup sample per finest cell (see :func:`_grid_blocks`). Sups of coarser
    dyadic intervals are the maxima of their cells' draws, reused
    consistently up the tree, so all (2**(check_depth+1) - 1) interval
    sups come from one coherent joint sample. The trial is a violation if
    any interval's sup exceeds its bound max(endpoints) + eta(epsilon,
    length). The report passes when the Wilson 95% upper limit of the
    violation rate is at most the theoretical bound epsilon**5, which at
    epsilon = 1/2 takes at least 120 trials. Trials are checked a block at
    a time, level by level from the finest, in temporaries of one block,
    with the verdicts of checking each trial alone.

    Only depths h <= check_depth are examined, so the empirical rate is a
    lower bound for the untruncated event; deeper intervals contribute a
    rapidly vanishing tail. This caveat is recorded in the metadata.
    Requires 1 <= check_depth <= ``MAX_GRID_DEPTH``.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(f"epsilon must satisfy 0 < epsilon <= 1/2, got {epsilon}")
    if check_depth < 1:
        raise ValueError(f"grid depth check_depth must be >= 1, got {check_depth}")
    if check_depth > MAX_GRID_DEPTH:
        raise ValueError(
            f"grid depth check_depth must be <= {MAX_GRID_DEPTH}, got {check_depth}"
        )
    widths = [eta(epsilon, math.ldexp(1.0, -h)) for h in range(check_depth + 1)]
    n = 1 << check_depth
    violations = 0
    for w, sups in _grid_blocks(*_grid_streams(seed), trials, check_depth):
        bad = np.zeros(len(w), dtype=bool)
        level = sups
        for h in range(check_depth, -1, -1):
            ends = w[:, :: n >> h]
            bad |= np.any(level > np.maximum(ends[:, :-1], ends[:, 1:]) + widths[h], axis=1)
            if h:
                level = np.maximum(level[:, 0::2], level[:, 1::2])
        violations += int(np.count_nonzero(bad))
    return _rate_report(trials, violations, epsilon**5, {
        "suite": "eventc",
        "epsilon": epsilon,
        "check_depth": check_depth,
        "seed": seed,
        "truncation": (
            "intervals of depth <= check_depth only; the empirical rate "
            "lower-bounds the untruncated violation probability"
        ),
    })


def baseline_separation(
    trials: int = 101, oob_runs: int = 200, seed: int = 0
) -> VerificationReport:
    """Compare grid sizes needed for target error against optimizer cost.

    For each grid size n in ``_GRID_SIZES``, the median conditional error
    M - m_hat is measured over ``trials`` fresh paths, m_hat being the
    best grid value (t = 0 included) and M the max of the exact cell sups:
    each trial is a row of :func:`_grid_blocks` at depth log2(n). The
    levels draw in turn, in increasing grid size, from one pair of grid
    streams seeded ``seed``, so appending a larger size leaves every
    earlier level's draws unchanged. For each target epsilon in
    ``_EPSILONS``, in decreasing order, the smallest grid size whose
    median error is <= epsilon is divided by the optimizer's mean
    evaluation count at that epsilon. The suite passes when every target
    is reachable, the cost ratio strictly grows as epsilon shrinks, and
    the ratio at the smallest epsilon is at least 3. One violation is
    counted per epsilon level that breaks its part of that contract. Both
    counts are checked before any draw.
    """
    for name, count in (("trials", trials), ("oob_runs", oob_runs)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")

    streams = _grid_streams(seed)
    medians = {}
    for n in _GRID_SIZES:
        blocks = _grid_blocks(*streams, trials, n.bit_length() - 1)
        errors = [sups.max(axis=1) - w.max(axis=1) for w, sups in blocks]
        medians[n] = median(np.concatenate(errors).tolist())

    ratios: list[float | None] = []
    mean_evals = []
    required = []
    violations = 0
    for level, epsilon in enumerate(_EPSILONS):
        base = derive_seed(seed, _RUNNER_TAG + level)
        mean_n = sum(
            run_oob(epsilon, derive_seed(base, j)).n_evals for j in range(oob_runs)
        ) / oob_runs
        mean_evals.append(mean_n)
        n_req = next((n for n in _GRID_SIZES if medians[n] <= epsilon), None)
        required.append(n_req)
        ratio = None if n_req is None else n_req / mean_n
        ratios.append(ratio)
        failed = ratio is None
        if not failed and level > 0:
            previous = ratios[level - 1]
            failed = previous is None or ratio <= previous
        if not failed and level == len(_EPSILONS) - 1:
            failed = ratio < _MIN_FACTOR
        violations += failed
    return VerificationReport(
        trials=len(_EPSILONS),
        violations=violations,
        bound=_MIN_FACTOR,
        wilson_upper_95=None,
        passed=violations == 0,
        metadata={
            "suite": "baseline",
            "epsilons": list(_EPSILONS),
            "grid_sizes": list(_GRID_SIZES),
            "trials_per_grid": trials,
            "oob_runs": oob_runs,
            "seed": seed,
            "median_errors": {str(n): medians[n] for n in _GRID_SIZES},
            "required_grid_n": required,
            "oob_mean_evals": mean_evals,
            "cost_ratios": ratios,
            "comparison": (
                "each epsilon reachable; cost_ratios strictly increasing; "
                "final ratio >= bound"
            ),
        },
    )
