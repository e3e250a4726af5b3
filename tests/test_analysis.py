"""Verification harnesses: oracles, counters, and report plumbing."""

from __future__ import annotations

import math

import numpy as np
import pytest

import oob.analysis
from oob import (
    RandomSource,
    baseline_separation,
    bridge_max_from_uniforms,
    bridge_max_sample,
    conditional_max_samples,
    derive_seed,
    eta,
    event_c_check,
    lemma3_mc,
    new_path,
    pac_estimate,
    run_oob_on_path,
    wilson_ci,
)
from oob.analysis import _BLOCK_CELLS, _ORACLE_TAG, MAX_GRID_DEPTH, _uniform_grid


class _GridReached(Exception):
    pass


@pytest.fixture
def grid_depths(monkeypatch):
    """Depths the grid suites ask ``_grid_blocks`` for; no grid is drawn."""
    depths = []

    def refuse(seed, trials, depth):
        depths.append(depth)
        raise _GridReached

    monkeypatch.setattr(oob.analysis, "_grid_blocks", refuse)
    return depths


class TestWilson:
    def test_frozen_values(self):
        # Hand-checked: center 1/2, half-width z*sqrt(0.0346.../10)/1.384...
        low, high = wilson_ci(5, 10)
        assert low == pytest.approx(0.236593090512564, rel=1e-12)
        assert high == pytest.approx(0.7634069094874361, rel=1e-12)

    def test_extremes(self):
        low, high = wilson_ci(0, 100)
        assert low == pytest.approx(0.0, abs=1e-15)
        assert high == pytest.approx(0.03699349820698568, rel=1e-12)
        low, high = wilson_ci(10, 10)
        assert high == pytest.approx(1.0, abs=1e-12)
        assert low == pytest.approx(0.7224672001371107, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_ci(0, 0)
        with pytest.raises(ValueError):
            wilson_ci(5, 4)
        with pytest.raises(ValueError):
            wilson_ci(-1, 4)


class TestConditionalMax:
    def test_dominates_evaluations(self):
        rng = RandomSource(5)
        for _ in range(100):
            interior = sorted(float(u) for u in rng.uniforms_open(3) * 0.98)
            times = [0.0] + interior + [1.0]
            values = [0.0] + [rng.normal() for _ in range(3)] + [rng.normal()]
            evals = list(zip(times, values))
            assert conditional_max_samples(evals, rng, 1)[0] >= max(values)

    def test_validation(self):
        rng = RandomSource(0)
        with pytest.raises(ValueError):
            conditional_max_samples([(0.0, 0.0)], rng, 1)
        with pytest.raises(ValueError):
            conditional_max_samples([(0.1, 0.0), (1.0, 0.0)], rng, 1)
        with pytest.raises(ValueError):
            conditional_max_samples([(0.0, 0.0), (0.9, 0.0)], rng, 1)
        with pytest.raises(ValueError):
            conditional_max_samples([(0.0, 0.0), (0.5, 1.0), (0.5, 1.0), (1.0, 0.0)], rng, 1)
        with pytest.raises(ValueError):
            conditional_max_samples([(0.0, 0.0), (1.0, 0.0)], rng, 0)

    def test_batched_matches_scalar_stream(self):
        evals = [(0.0, 0.0), (0.25, 0.4), (0.7, -0.1), (1.0, 0.2)]
        # Row-major draws: one call of 5 equals five calls of 1, bit for bit.
        batch = conditional_max_samples(evals, RandomSource(9), 5)
        twin = RandomSource(9)
        singles = [conditional_max_samples(evals, twin, 1)[0] for _ in range(5)]
        assert batch.tolist() == singles

    def test_excess_shrinks_with_refinement(self):
        # Paired across h: the same depth-12 walk thinned to depths 4, 8,
        # and 12. Oracle draws of M given fewer points sit farther above
        # the retained grid max, and the mean gap drops as points return.
        trials = 500
        means = {}
        for h in (4, 8, 12):
            stride = 4096 >> h
            total = 0.0
            for j in range(trials):
                rng = RandomSource(derive_seed(47, j))
                z = rng.normals(4096)
                w = np.concatenate(([0.0], np.cumsum(z) * math.sqrt(1.0 / 4096)))
                sub = w[::stride]
                times = np.arange(0, 4097, stride) / 4096.0
                evals = list(zip(times, sub))
                oracle = RandomSource(derive_seed(derive_seed(47, j), h))
                m = conditional_max_samples(evals, oracle, 1)[0]
                assert m >= sub.max()
                total += m - sub.max()
            means[h] = total / trials
        assert means[4] > means[8] > means[12]


class TestPacEstimate:
    def test_deterministic(self):
        a = pac_estimate(0.1, trials=3, oracle_draws_per_trial=4, seed=5)
        b = pac_estimate(0.1, trials=3, oracle_draws_per_trial=4, seed=5)
        assert a == b

    def test_report_accounting(self):
        report = pac_estimate(0.15, trials=4, oracle_draws_per_trial=6, seed=2)
        assert report.trials == 24
        assert report.empirical_rate * report.trials == report.violations
        assert report.bound == 0.15
        assert report.metadata["runs"] == 4
        assert report.wilson_upper_95 is not None

    def test_small_run_passes(self):
        # Exceedances are fifth-power rare; a small suite sees none.
        report = pac_estimate(0.1, trials=40, oracle_draws_per_trial=50, seed=11)
        assert report.violations == 0
        assert report.passed

    def test_blocked_draws_match_one_call(self, monkeypatch):
        # Runs of a few dozen cells split 2,000 draws into several blocks;
        # row-major draws make the blocks the rows of one call.
        epsilon, trials, draws, seed = 0.1, 2, 2000, 8
        one_call = conditional_max_samples
        blocks = []

        def record(evaluations, rng, count):
            blocks.append(one_call(evaluations, rng, count))
            return blocks[-1]

        monkeypatch.setattr(oob.analysis, "conditional_max_samples", record)
        report = pac_estimate(epsilon, trials, draws, seed)
        reference, exceedances = [], 0
        for j in range(trials):
            path = new_path(derive_seed(seed, j))
            m_hat = run_oob_on_path(epsilon, path).m_hat
            reference.append(one_call(path.evaluations(), path.rng, draws))
            exceedances += int(np.count_nonzero(reference[-1] - m_hat > epsilon))
        assert len(blocks) >= 2 * trials
        assert np.array_equal(np.concatenate(blocks), np.concatenate(reference))
        assert report.violations == exceedances

    def test_oracle_requests_stay_within_block(self, monkeypatch):
        requests = []
        draw = RandomSource.uniforms_open

        def record(self, shape):
            requests.append(shape)
            return draw(self, shape)

        monkeypatch.setattr(RandomSource, "uniforms_open", record)
        pac_estimate(0.1, trials=3, oracle_draws_per_trial=5000, seed=4)
        assert len(requests) > 3
        assert max(rows * cells for rows, cells in requests) <= _BLOCK_CELLS

    def test_validation(self):
        with pytest.raises(ValueError):
            pac_estimate(0.6, 1, 1, 0)
        with pytest.raises(ValueError):
            pac_estimate(0.1, 0, 1, 0)
        with pytest.raises(ValueError):
            pac_estimate(0.1, 1, 0, 0)


def _trial_grid(trial_seed: int, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Reference draws of one trial: the dyadic walk, then one sup per cell."""
    rng = RandomSource(trial_seed)
    n = 1 << depth
    length = math.ldexp(1.0, -depth)
    w = np.empty(n + 1)
    w[0] = 0.0
    np.cumsum(rng.normals(n), out=w[1:])
    w[1:] *= math.sqrt(length)
    u = rng.uniforms_open(n)
    return w, bridge_max_from_uniforms(u, length, w[:-1], w[1:])


def _reference_lemma3_counts(
    h: int, eta_value: float, trials: int, seed: int, walk_depth: int
) -> np.ndarray:
    """Per-trial near-optimal counts at depth h, M drawn on a walk_depth grid."""
    counts = np.empty(trials)
    for j in range(trials):
        w, sups = _trial_grid(derive_seed(seed, j), walk_depth)
        counts[j] = np.count_nonzero(w[:: 1 << (walk_depth - h)] >= sups.max() - eta_value)
    return counts


def _reference_event_c_violations(
    epsilon: float, check_depth: int, trials: int, seed: int
) -> int:
    """Per-trial event-C check, stopping at the first violating level."""
    widths = [eta(epsilon, math.ldexp(1.0, -h)) for h in range(check_depth + 1)]
    violations = 0
    for j in range(trials):
        w, level = _trial_grid(derive_seed(seed, j), check_depth)
        for h in range(check_depth, -1, -1):
            ends = w[:: 1 << (check_depth - h)]
            if np.any(level > np.maximum(ends[:-1], ends[1:]) + widths[h]):
                violations += 1
                break
            if h:
                level = np.maximum(level[0::2], level[1::2])
    return violations


class TestLemma3:
    def test_saturation_counts_both_endpoints(self):
        report = lemma3_mc(0, 5.0, trials=50, seed=11)
        assert report.empirical_rate == 2.0  # every trial counts 0 and 1
        assert report.violations == 100
        assert report.passed  # bound 6*25 = 150

    def test_eta_zero_counts_nothing(self):
        # The maximum reference exceeds every grid value almost surely.
        report = lemma3_mc(4, 0.0, trials=200, seed=11)
        assert report.empirical_rate == 0.0
        assert report.passed

    def test_paired_monotone_in_eta(self):
        # Same seed, same walks and oracle draws: per-trial counts only
        # grow with eta, so the means must be ordered deterministically.
        small = lemma3_mc(4, 0.05, trials=300, seed=13)
        large = lemma3_mc(4, 0.15, trials=300, seed=13)
        assert small.empirical_rate <= large.empirical_rate

    def test_overshoot_fails(self):
        # At depth 0 the two endpoints alone already put the mean count
        # near 0.16 for eta = 0.1, far above the quadratic bound 0.06, so
        # the check must report failure.
        report = lemma3_mc(0, 0.1, trials=400, seed=11)
        assert not report.passed
        assert report.metadata["mean_plus_3se"] > report.bound

    @pytest.mark.parametrize(
        "h,eta_value,trials,seed",
        [(0, 0.3, 5, 2), (6, 0.1, 1200, 9), (11, 0.05, 40, 3), (15, 0.02, 3, 4)],
    )
    def test_matches_per_trial_reference(self, h, eta_value, trials, seed):
        # One block at h = 0, three at h = 6 and 11, one trial per block at 15.
        counts = _reference_lemma3_counts(h, eta_value, trials, seed, walk_depth=h)
        report = lemma3_mc(h, eta_value, trials, seed)
        assert report.violations == int(counts.sum())
        assert report.metadata["mean_count"] == float(counts.mean())
        assert report.metadata["std_error"] == float(
            counts.std(ddof=1) / math.sqrt(trials)
        )

    def test_mean_agrees_with_fine_walk(self):
        # Drawing M from a 64x finer walk has the same law of (grid, M);
        # the means of two independent seeds must agree within 4 combined
        # standard errors.
        h, eta_value, trials = 4, 0.2, 3000
        report = lemma3_mc(h, eta_value, trials, seed=71)
        fine = _reference_lemma3_counts(h, eta_value, trials, seed=72, walk_depth=h + 6)
        se = math.hypot(report.metadata["std_error"], fine.std(ddof=1) / math.sqrt(trials))
        assert abs(report.metadata["mean_count"] - fine.mean()) <= 4.0 * se

    def test_validation(self):
        with pytest.raises(ValueError):
            lemma3_mc(-1, 0.1, trials=1, seed=0)
        with pytest.raises(ValueError):
            lemma3_mc(2, -0.1, trials=1, seed=0)
        with pytest.raises(ValueError):
            lemma3_mc(2, 0.1, trials=0, seed=0)
        # nan would compare false everywhere and inf would pass vacuously.
        for eta_value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="eta"):
                lemma3_mc(2, eta_value, trials=5, seed=0)

    def test_depth_ceiling(self, grid_depths):
        # Up to the ceiling the walk is requested; one past it is refused
        # before anything is allocated.
        with pytest.raises(_GridReached):
            lemma3_mc(MAX_GRID_DEPTH, 0.1, trials=1, seed=0)
        for h in (MAX_GRID_DEPTH + 1, 34):
            with pytest.raises(ValueError, match=f"h must be <= {MAX_GRID_DEPTH}"):
                lemma3_mc(h, 0.1, trials=1, seed=0)
        assert grid_depths == [MAX_GRID_DEPTH]

    @pytest.mark.parametrize("h,eta_value", [(2, 1e308), (2, 1e154), (2000, 0.1)])
    def test_overflowing_bound_rejected(self, h, eta_value):
        # A finite eta whose bound 6*eta**2*2**h is not finite would pass
        # vacuously; it is refused before any draw.
        with pytest.raises(ValueError, match="overflows"):
            lemma3_mc(h, eta_value, trials=2, seed=0)


class TestEventC:
    def test_paired_monotone_in_epsilon(self):
        # Same seed means identical walks and sup draws; shrinking epsilon
        # only raises every bound, so violations can only disappear.
        loose = event_c_check(0.5, check_depth=8, trials=3000, seed=41)
        tight = event_c_check(0.25, check_depth=8, trials=3000, seed=41)
        assert tight.empirical_rate <= loose.empirical_rate

    @pytest.mark.parametrize(
        "check_depth,trials,seed", [(4, 6000, 1), (5, 4000, 1), (8, 4000, 1)]
    )
    def test_matches_per_trial_reference(self, check_depth, trials, seed):
        # Settings picked for having violations (2, 1 and 3); their trials
        # span 3, 4 and 32 blocks.
        violations = _reference_event_c_violations(0.5, check_depth, trials, seed)
        assert violations > 0
        report = event_c_check(0.5, check_depth, trials, seed)
        assert report.violations == violations
        assert report.wilson_upper_95 == wilson_ci(violations, trials)[1]

    def test_report_accounting(self):
        report = event_c_check(0.5, check_depth=6, trials=2000, seed=43)
        assert report.trials == 2000
        assert report.empirical_rate * report.trials == report.violations
        assert report.bound == 0.5**5
        assert report.passed
        assert "truncation" in report.metadata

    def test_validation(self):
        with pytest.raises(ValueError):
            event_c_check(0.6, 4, 10, 0)  # above 1/2
        with pytest.raises(ValueError):
            event_c_check(0.0, 4, 10, 0)
        with pytest.raises(ValueError):
            event_c_check(0.5, 0, 10, 0)
        with pytest.raises(ValueError):
            event_c_check(0.5, 4, 0, 0)

    def test_depth_ceiling(self, grid_depths):
        with pytest.raises(_GridReached):
            event_c_check(0.5, MAX_GRID_DEPTH, 1, 0)
        for depth in (MAX_GRID_DEPTH + 1, 34):
            with pytest.raises(ValueError, match=f"check_depth must be <= {MAX_GRID_DEPTH}"):
                event_c_check(0.5, depth, 1, 0)
        assert grid_depths == [MAX_GRID_DEPTH]


class TestBaseline:
    @pytest.mark.parametrize("n", [1, 3, 5, 7, 16, 1000])
    def test_batched_walk_matches_lazy_path(self, n):
        # Bit-equal, no tolerance, to a path walked at k/n: every point lies
        # beyond the last stored one, so this pins that branch of evaluate.
        for seed in (0, 1, 2, 77, 2**63 + 5, 2**64 - 1):
            path = new_path(seed)
            walk = [path.evaluate(k / n) for k in range(1, n + 1)]
            t, w = _uniform_grid(n, seed)
            assert t.tolist() == [k / n for k in range(n + 1)]
            assert w.tolist() == [0.0, *walk]

    @pytest.mark.parametrize("seed", range(5))
    def test_batched_oracle_matches_scalar_reference(self, seed):
        # Reference: the lazily walked path and one bridge_max_sample per
        # cell from the oracle stream; numpy's scalar and array log may
        # round differently in the last bit.
        grid_sizes = (16, 64, 256)
        report = baseline_separation(
            grid_sizes=grid_sizes, trials=1, oob_runs=1, seed=seed
        )
        for i, n in enumerate(grid_sizes):
            trial_seed = derive_seed(derive_seed(seed, i), 0)
            path = new_path(trial_seed)
            w = [0.0] + [path.evaluate(k / n) for k in range(1, n + 1)]
            oracle = RandomSource(derive_seed(trial_seed, _ORACLE_TAG))
            m = max(
                bridge_max_sample(oracle, (k - 1) / n, k / n, w[k - 1], w[k])
                for k in range(1, n + 1)
            )
            ref = m - max(w)
            got = report.metadata["median_errors"][str(n)]
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_validation(self):
        for grid_sizes in ((), (0, 16), (-4,)):
            with pytest.raises(ValueError, match="positive"):
                baseline_separation(grid_sizes=grid_sizes, trials=2, oob_runs=2)

    def test_separation_smoke(self):
        report = baseline_separation(
            epsilons=(0.05, 0.01),
            grid_sizes=tuple(2**k for k in range(4, 14)),
            trials=15,
            oob_runs=25,
            seed=3,
        )
        assert report.passed
        ratios = report.metadata["cost_ratios"]
        assert ratios[0] < ratios[1]
        assert ratios[1] >= 3.0
        meds = report.metadata["median_errors"]
        assert meds["16"] > meds["8192"]  # coarse grids err more
        again = baseline_separation(
            epsilons=(0.05, 0.01),
            grid_sizes=tuple(2**k for k in range(4, 14)),
            trials=15,
            oob_runs=25,
            seed=3,
        )
        assert report == again

    def test_separation_validation(self):
        with pytest.raises(ValueError):
            baseline_separation(epsilons=(0.01, 0.05), trials=2, oob_runs=2)
        with pytest.raises(ValueError):
            baseline_separation(epsilons=(), trials=2, oob_runs=2)
        with pytest.raises(ValueError):
            baseline_separation(epsilons=(0.05,), trials=0)
        # "The smallest grid reaching eps" is the first one only in
        # increasing order; a repeated size would collapse a level.
        for grid_sizes in (tuple(2**k for k in range(14, 3, -1)), (16, 64, 64, 256)):
            with pytest.raises(ValueError, match="strictly increasing"):
                baseline_separation(grid_sizes=grid_sizes, trials=2, oob_runs=2)
