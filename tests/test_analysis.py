"""Verification harnesses: oracles, counters, and report plumbing."""

from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from statistics import median

import numpy as np
import pytest

import oob.analysis
import oob.optimizer
from oob import (
    MAX_DEPTH,
    BrownianPath,
    RandomSource,
    baseline_separation,
    bridge_max_from_uniforms,
    compute_h_max,
    derive_seed,
    eta,
    event_c_check,
    lemma3_mc,
    pac_estimate,
    run_oob,
    wilson_ci,
)
from oob.analysis import MAX_GRID_DEPTH, _exceed_prob, _rate_report


class _GridReached(Exception):
    pass


@pytest.fixture
def grid_depths(monkeypatch):
    """Depths the grid suites ask ``_grid_blocks`` for; no grid is drawn."""
    depths = []

    def refuse(gaussians, uniforms, trials, depth):
        depths.append(depth)
        raise _GridReached

    monkeypatch.setattr(oob.analysis, "_grid_blocks", refuse)
    return depths


@pytest.fixture
def draws(monkeypatch):
    """Names of the ``RandomSource`` draw methods called, in call order."""
    names = []
    for name in ("normal", "normals", "uniform_open", "uniforms_open"):
        original = getattr(RandomSource, name)
        monkeypatch.setattr(RandomSource, name, lambda *a, _f=original, _n=name:
                            names.append(_n) or _f(*a))
    return names


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


class TestRateReport:
    @pytest.mark.parametrize(
        "trials, bound, passes",
        [(120, 0.5**5, True), (119, 0.5**5, False), (35, 0.1, True), (34, 0.1, False)],
    )
    def test_clean_runs_needed(self, trials, bound, passes):
        # With no violation, the Wilson upper limit falls below epsilon**5
        # at epsilon = 1/2 from 120 trials on, and below 0.1 from 35.
        report = _rate_report(trials, 0, bound, {"suite": "x"})
        assert report.passed is passes
        assert report.wilson_upper_95 == wilson_ci(0, trials)[1]
        assert report.metadata == {"suite": "x", "comparison": "wilson_upper_95 <= bound"}


class TestConditionalMax:
    """The exact kernel P(M > x | evaluations) that pac applies to each run."""

    def test_dominates_evaluations(self):
        # M is at least the best value, so at that x the probability is
        # exactly 1; above it, it falls strictly into (0, 1).
        rng = RandomSource(5)
        for _ in range(100):
            interior = sorted(float(u) for u in rng.uniforms_open(3) * 0.98)
            times = [0.0] + interior + [1.0]
            values = [0.0] + [rng.normal() for _ in range(3)] + [rng.normal()]
            evals = list(zip(times, values))
            best = max(values)
            assert _exceed_prob(evals, best) == 1.0
            assert 0.0 < _exceed_prob(evals, best + 0.5) < 1.0

    def test_validation(self):
        bad = [
            [],
            [(0.0, 0.0)],
            [(0.1, 0.0), (1.0, 0.0)],
            [(0.0, 0.0), (0.9, 0.0)],
            [(0.0, 0.0), (0.5, 1.0), (0.5, 1.0), (1.0, 0.0)],
            [(0.0, 0.0), (0.7, 1.0), (0.5, 1.0), (1.0, 0.0)],
            [(0.0, 0.0), (math.nan, 1.0), (1.0, 0.0)],
            [(0.0, 0.0), (math.inf, 1.0), (1.0, 0.0)],
            [(0.0, 0.0), (0.5, math.nan), (1.0, 0.0)],
            [(0.0, 0.0), (0.5, math.inf), (1.0, 0.0)],
            [(0.0, 0.0), (0.5, -math.inf), (1.0, 0.0)],
        ]
        for evals in bad:
            with pytest.raises(ValueError):
                _exceed_prob(evals, 2.0)
        # x below the best value, by any margin, or NaN.
        evals = [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)]
        for x in (0.5, math.nextafter(1.0, 0.0), math.nan):
            with pytest.raises(ValueError):
                _exceed_prob(evals, x)

    @pytest.mark.parametrize("seed", [3, 10])
    def test_matches_monte_carlo_draws(self, seed):
        # One exact bridge-maximum draw per cell, maximized over cells, is a
        # draw of M given the run; its exceedance rate at fixed x must sit
        # within 4 standard errors of the kernel's probability.
        result = run_oob(0.2, seed)
        evals = [(0.0, 0.0), *sorted(result.trace)]
        t, w = np.asarray(evals).T
        u = RandomSource(derive_seed(seed, 1)).uniforms_open((20_000, len(t) - 1))
        draws = bridge_max_from_uniforms(u, np.diff(t), w[:-1], w[1:]).max(axis=1)
        for excess in (0.005, 0.01, 0.02, 0.04):
            x = result.m_hat + excess
            p = _exceed_prob(evals, x)
            assert 1e-3 < p < 1.0
            z = (np.mean(draws > x) - p) / math.sqrt(p * (1.0 - p) / len(draws))
            assert abs(z) <= 4.0

    def test_excess_shrinks_with_refinement(self):
        # Paired across h: the same depth-12 walk thinned to depths 4, 8,
        # and 12. Given fewer points, M is likelier to sit far above the
        # retained grid max, so the mean probability drops as points return.
        trials = 500
        means = {}
        for h in (4, 8, 12):
            stride = 4096 >> h
            total = 0.0
            for j in range(trials):
                z = RandomSource(derive_seed(47, j)).normals(4096)
                w = np.concatenate(([0.0], np.cumsum(z) * math.sqrt(1.0 / 4096)))
                sub = w[::stride]
                times = np.arange(0, 4097, stride) / 4096.0
                total += _exceed_prob(list(zip(times, sub)), sub.max() + 0.02)
            means[h] = total / trials
        assert means[4] > means[8] > means[12]


class TestPacEstimate:
    def test_deterministic(self):
        a = pac_estimate(0.1, trials=3, seed=5)
        b = pac_estimate(0.1, trials=3, seed=5)
        assert a == b

    def test_report_accounting(self):
        # violations sums the runs' exact failure probabilities.
        trials, seed = 4, 2
        report = pac_estimate(0.15, trials, seed)
        expected = 0.0
        for j in range(trials):
            result = run_oob(0.15, derive_seed(seed, j))
            expected += _exceed_prob([(0.0, 0.0), *sorted(result.trace)], result.m_hat + 0.15)
        assert report.trials == trials
        assert report.violations == expected
        assert report.empirical_rate == expected / trials
        assert report.bound == 0.15
        assert report.wilson_upper_95 == wilson_ci(expected, trials)[1]
        assert report.metadata["comparison"] == "wilson_upper_95 <= bound"

    def test_small_run_passes(self):
        # A sound run fails with probability near 1e-12 at eps = 0.1, so 40
        # runs put the Wilson upper limit near 0.088, below eps.
        report = pac_estimate(0.1, trials=40, seed=11)
        assert report.empirical_rate < 1e-9
        assert report.wilson_upper_95 < 0.1
        assert report.passed

    @pytest.mark.parametrize("scale, passes", [(0.25, False), (0.5, True)])
    def test_power_against_narrowed_widths(self, monkeypatch, scale, passes):
        # Narrowing every confidence width (and with it h_max) to a quarter
        # breaks the guarantee: the mean failure probability is about 0.13
        # and the upper limit 0.16. At half width the optimizer is still
        # sound, with an upper limit near 0.008.
        width = oob.optimizer.eta
        monkeypatch.setattr(oob.optimizer, "eta", lambda e, d: scale * width(e, d))
        report = pac_estimate(0.1, 500, 0)
        assert report.passed is passes

    def test_smallest_epsilon_run_is_accepted(self):
        # At the smallest epsilon compute_h_max accepts, the run reaches
        # depth MAX_DEPTH, where every dyadic time is still an exact double.
        epsilon = 1.217e-7
        assert compute_h_max(epsilon) == MAX_DEPTH
        result = run_oob(epsilon, 0)
        times = [t for t, _ in result.trace]
        assert len(set(times)) == result.n_evals
        assert max(Fraction(t).denominator for t in times) == 2**MAX_DEPTH
        p = _exceed_prob([(0.0, 0.0), *sorted(result.trace)], result.m_hat + epsilon)
        assert 0.0 <= p < epsilon

    def test_builds_no_path(self, monkeypatch):
        # pac takes the run from run_oob; no per-trial BrownianPath is built.
        built = []
        init = BrownianPath.__init__

        def record(self, rng):
            built.append(rng.seed)
            init(self, rng)

        monkeypatch.setattr(BrownianPath, "__init__", record)
        pac_estimate(0.1, 3, 0)
        assert built == []

    def test_draws_no_uniforms_one_source_per_trial(self, monkeypatch):
        # Each trial's run builds its own source; nothing is drawn after it.
        built, uniforms = [], []
        init = RandomSource.__init__

        def record(self, seed):
            built.append(seed)
            init(self, seed)

        monkeypatch.setattr(RandomSource, "__init__", record)
        monkeypatch.setattr(RandomSource, "uniforms_open", lambda self, shape: uniforms.append(shape))
        monkeypatch.setattr(RandomSource, "uniform_open", lambda self: uniforms.append(1))
        pac_estimate(0.1, 3, 4)
        assert built == [derive_seed(4, j) for j in range(3)]
        assert uniforms == []

    def test_validation(self):
        with pytest.raises(ValueError):
            pac_estimate(0.6, 1, 0)
        with pytest.raises(ValueError, match="too small"):
            pac_estimate(2e-8, 1, 0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_refuses_trials_below_one(self, trials, draws):
        # The Wilson interval is the one place that refuses it; no run starts.
        with pytest.raises(ValueError) as refused:
            pac_estimate(0.1, trials, 0)
        assert str(refused.value) == f"trials must be >= 1, got {trials}"
        assert draws == []


def _grid_streams(seed: int) -> tuple[RandomSource, RandomSource]:
    """The Gaussian and the uniform stream of a grid-suite call seeded ``seed``."""
    return RandomSource(derive_seed(seed, 0)), RandomSource(derive_seed(seed, 1))


def _trial_grid(gaussians: RandomSource, uniforms: RandomSource, trials: int, depth: int):
    """Reference draws of ``trials`` grid trials, as ``(w, sups)`` per trial.

    All Gaussians are drawn here in one ``normals(trials * n)`` call and all
    uniforms in one ``uniforms_open((trials, n))`` call; trial j is row j,
    whose walk and cell sups are then built on their own.
    """
    n = 1 << depth
    length = math.ldexp(1.0, -depth)
    z = gaussians.normals(trials * n).reshape(trials, n)
    u = uniforms.uniforms_open((trials, n))

    def trial(z_row, u_row):
        w = np.empty(n + 1)
        w[0] = 0.0
        np.cumsum(z_row, out=w[1:])
        w[1:] *= math.sqrt(length)
        return w, bridge_max_from_uniforms(u_row, length, w[:-1], w[1:])

    return (trial(z_row, u_row) for z_row, u_row in zip(z, u))


def _reference_lemma3_counts(
    h: int, eta_value: float, trials: int, seed: int, walk_depth: int
) -> np.ndarray:
    """Per-trial near-optimal counts at depth h, M drawn on a walk_depth grid."""
    counts = np.empty(trials)
    for j, (w, sups) in enumerate(_trial_grid(*_grid_streams(seed), trials, walk_depth)):
        counts[j] = np.count_nonzero(w[:: 1 << (walk_depth - h)] >= sups.max() - eta_value)
    return counts


def _reference_event_c_violations(
    epsilon: float, check_depth: int, trials: int, seed: int
) -> int:
    """Per-trial event-C check, stopping at the first violating level."""
    widths = [eta(epsilon, math.ldexp(1.0, -h)) for h in range(check_depth + 1)]
    violations = 0
    for w, level in _trial_grid(*_grid_streams(seed), trials, check_depth):
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

    @pytest.mark.parametrize("scale, z_value", [(1.0, 0.78), (1.1, -5.72), (0.9, 7.52)])
    def test_mean_matches_exact_expectation(self, monkeypatch, scale, z_value):
        # Grid point t is within eta of M when neither the path before t nor
        # the path after it climbs more than eta above W(t); these two are
        # independent, and a Brownian path over a length d stays below eta
        # with probability erf(eta / sqrt(2 d)). Gaussians scaled by 1.1 or
        # 0.9 give the grid the wrong variance for its bridges, and the
        # pre-registered |z| <= 4 rule kills both (at depth 6 neither).
        h, eta_value, n = 10, 0.05, 1 << 10

        def stays_below(d: float) -> float:
            return math.erf(eta_value / math.sqrt(2.0 * d)) if d else 1.0

        expected = sum(stays_below(k / n) * stays_below(1.0 - k / n) for k in range(n + 1))
        assert expected == pytest.approx(4.9554, abs=1e-4)
        streams = oob.analysis._grid_streams

        class Scaled:  # every Gaussian of the call, on whichever thread it is drawn
            def __init__(self, gen):
                self.gen = gen

            def standard_normal(self, shape, out=None):
                return np.multiply(self.gen.standard_normal(shape, out=out), scale, out=out)

        def scaled_streams(seed):
            gaussians, uniforms = streams(seed)
            gaussians._gen = Scaled(gaussians._gen)
            return gaussians, uniforms

        monkeypatch.setattr(oob.analysis, "_grid_streams", scaled_streams)
        report = lemma3_mc(h, eta_value, 2000, 1)
        z = (report.metadata["mean_count"] - expected) / report.metadata["std_error"]
        assert z == pytest.approx(z_value, abs=0.01)
        assert (abs(z) <= 4.0) is (scale == 1.0)

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
        # The depth is checked first, so a depth whose bound would also
        # overflow (2000) is refused for its depth.
        for h in (MAX_GRID_DEPTH + 1, 34, 2000):
            with pytest.raises(ValueError, match=f"grid depth h must be <= {MAX_GRID_DEPTH}"):
                lemma3_mc(h, 0.1, trials=1, seed=0)
        assert grid_depths == [MAX_GRID_DEPTH]

    @pytest.mark.parametrize("h,eta_value", [(2, 1e308), (2, 1e154)])
    def test_overflowing_bound_rejected(self, h, eta_value):
        # A finite eta whose bound 6*eta**2*2**h is not finite would pass
        # vacuously; it is refused before any draw.
        with pytest.raises(ValueError, match="overflows"):
            lemma3_mc(h, eta_value, trials=2, seed=0)


class TestGridStreams:
    def test_two_sources_per_call(self, monkeypatch):
        # Each grid-suite call seeds one Gaussian and one uniform stream,
        # whatever its trial count or block count; the baseline adds one
        # source per optimizer run.
        built = []
        init = RandomSource.__init__

        def record(self, seed):
            built.append(seed)
            init(self, seed)

        monkeypatch.setattr(RandomSource, "__init__", record)
        pair = [derive_seed(3, 0), derive_seed(3, 1)]
        lemma3_mc(15, 0.02, 3, 3)
        assert built == pair
        built.clear()
        event_c_check(0.5, 4, 5000, 3)
        assert built == pair
        built.clear()
        baseline_separation((0.05, 0.01), (16, 64, 256), trials=5, oob_runs=3, seed=3)
        assert built[:2] == pair
        assert len(built) == 2 + 2 * 3


class TestGridWorkspace:
    # Each call runs every block in one workspace; neither the rows per
    # block nor a short last block may show in a report.
    SUITES = {
        "lemma3": lambda: lemma3_mc(6, 0.1, 1200, 9),
        "lemma3 deep": lambda: lemma3_mc(12, 0.02, 3, 2),
        "eventc": lambda: event_c_check(0.5, 10, 37, 1),
        "eventc violating": lambda: event_c_check(0.5, 8, 4000, 1),
        "baseline": lambda: baseline_separation(
            grid_sizes=(16, 256, 4096), trials=37, oob_runs=2, seed=4
        ),
    }

    @pytest.mark.parametrize("cells", [1 << 11, 1 << 17])
    def test_block_size_leaves_reports_unchanged(self, monkeypatch, cells):
        default = {name: run().to_json_dict() for name, run in self.SUITES.items()}
        assert default["eventc violating"]["violations"] == 2
        monkeypatch.setattr(oob.analysis, "_BLOCK_CELLS", cells)
        assert {name: run().to_json_dict() for name, run in self.SUITES.items()} == default

    def test_event_c_memory_does_not_grow_with_trials(self):
        def peak(trials):
            tracemalloc.start()
            try:
                event_c_check(0.5, 10, trials, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        event_c_check(0.5, 10, 1, 1)  # numpy's own first-call set-up is not the workspace
        short, long = peak(200), peak(2000)
        assert abs(long - short) <= 64 * 1024
        assert long <= 12 * oob.analysis._BLOCK_CELLS * 8


def _report_from_fork(conn) -> None:
    report = event_c_check(0.5, 10, 100, 4).to_json_dict()
    conn.send((report, oob.analysis._worker[0] == os.getpid()))
    conn.close()


def _hooked_streams(seed: int, before) -> tuple[RandomSource, RandomSource]:
    """``_grid_streams(seed)`` whose Gaussian draws call ``before()`` first,
    on whichever thread draws them."""
    gaussians, uniforms = _grid_streams(seed)
    gen = gaussians._gen

    class Hooked:
        def standard_normal(self, shape, out=None):
            before()
            return gen.standard_normal(shape, out=out)

    gaussians._gen = Hooked()
    return gaussians, uniforms


def _off_main_thread() -> bool:
    return threading.current_thread() is not threading.main_thread()


class TestDrawAhead:
    # From the second block on, one worker thread draws a block's Gaussians
    # while the caller walks, inverts and reduces the block before it.
    @pytest.mark.parametrize("trials, depth", [(100, 10), (9, 13), (7, 14)])
    def test_blocks_match_per_trial_reference(self, trials, depth):
        block = oob.analysis._BLOCK_CELLS >> depth
        assert trials > 2 * block and trials % block  # three blocks or more, the last short
        reference = _trial_grid(*_grid_streams(5), trials, depth)
        rows = 0
        for w, sups in oob.analysis._grid_blocks(*_grid_streams(5), trials, depth):
            for w_row, sups_row in zip(w, sups):
                w_ref, sups_ref = next(reference)
                assert w_row.tobytes() == w_ref.tobytes()
                assert sups_row.tobytes() == sups_ref.tobytes()
            rows += len(w)
        assert rows == trials

    def test_close_waits_for_the_block_ahead(self):
        # Closed after its first block, the walk has drawn the second
        # block's Gaussians too, a slow draw here, and nothing draws from
        # the stream once close returns.
        gaussians, uniforms = _hooked_streams(8, lambda: _off_main_thread() and time.sleep(0.2))
        blocks = oob.analysis._grid_blocks(gaussians, uniforms, 100, 10)
        next(blocks)
        blocks.close()
        fresh, fresh_uniforms = _grid_streams(8)
        fresh.normals((2 * 32, 1 << 10))
        fresh_uniforms.uniforms_open((32, 1 << 10))
        assert gaussians.normals(64).tobytes() == fresh.normals(64).tobytes()
        assert uniforms.uniforms_open(64).tobytes() == fresh_uniforms.uniforms_open(64).tobytes()

    def test_one_worker_draws_every_later_block(self):
        threads = []

        def blocks(trials):
            streams = _hooked_streams(2, lambda: threads.append(threading.get_ident()))
            return [len(w) for w, _ in oob.analysis._grid_blocks(*streams, trials, 10)]

        assert blocks(32) == [32]
        assert threads == [threading.get_ident()]
        assert blocks(70) == [32, 32, 6]
        assert blocks(40) == [32, 8]
        caller = threading.get_ident()
        assert threads[1] == threads[4] == caller
        assert threads[2] == threads[3] == threads[5] != caller

    def test_source_methods_run_on_the_calling_thread(self, monkeypatch):
        # The worker calls the generator itself: a wrapper around a
        # RandomSource method, such as a tracer span that nests on one
        # thread, never runs on the worker.
        threads = set()
        for name in ("normals", "uniforms_open"):
            def recorded(self, *args, _f=getattr(RandomSource, name), **kwargs):
                threads.add(threading.get_ident())
                return _f(self, *args, **kwargs)

            monkeypatch.setattr(RandomSource, name, recorded)
        event_c_check(0.5, 10, 100, 4)
        assert threads == {threading.get_ident()}

    def test_worker_error_reaches_the_caller(self):
        def fail_off_main_thread():
            if _off_main_thread():
                raise FloatingPointError("worker draw failed")

        blocks = oob.analysis._grid_blocks(*_hooked_streams(2, fail_off_main_thread), 64, 10)
        next(blocks)
        with pytest.raises(FloatingPointError, match="worker draw failed"):
            next(blocks)

    def test_callers_on_many_threads_share_the_worker(self):
        # Each call's streams are its own, so calls on six threads, all
        # drawing ahead through the one worker, give their lone reports.
        seeds = range(6)
        alone = [event_c_check(0.5, 8, 400, seed).to_json_dict() for seed in seeds]
        reports = [None] * len(alone)

        def run(i):
            for _ in range(5):
                reports[i] = event_c_check(0.5, 8, 400, seeds[i]).to_json_dict()
                if reports[i] != alone[i]:
                    return

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(alone))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert reports == alone

    # Python 3.12 and later warn when a process with threads forks.
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_gets_its_own_worker(self):
        report = event_c_check(0.5, 10, 100, 4).to_json_dict()
        assert oob.analysis._worker[0] == os.getpid()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_report_from_fork, args=(sender,))
        child.start()
        sender.close()
        try:
            assert receiver.poll(60), "the forked child sent no report"
            assert receiver.recv() == (report, True)
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0

    def test_cli_import_starts_no_worker(self):
        # A command that walks no grid of two blocks pays nothing for the worker.
        code = (
            "import sys, threading, oob.cli\n"
            "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert done.stdout == "1 False\n"


def _event_c_union_sum(epsilon: float, depth: int = 200) -> float:
    """Sum over h <= depth of 2**h * P(one depth-h interval beats its width)."""
    return sum(
        2**h * math.erfc(oob.analysis.eta(epsilon, math.ldexp(1.0, -h)) * math.sqrt(2 * 2**h))
        for h in range(depth + 1)
    )


class TestEventC:
    def test_paired_monotone_in_epsilon(self):
        # Same seed means identical walks and sup draws; shrinking epsilon
        # only raises every bound, so violations can only disappear.
        loose = event_c_check(0.5, check_depth=8, trials=3000, seed=41)
        tight = event_c_check(0.25, check_depth=8, trials=3000, seed=41)
        assert tight.empirical_rate <= loose.empirical_rate

    @pytest.mark.parametrize(
        "check_depth,trials,seed", [(4, 6000, 3), (5, 4000, 3), (8, 4000, 1)]
    )
    def test_matches_per_trial_reference(self, check_depth, trials, seed):
        # Settings picked for having violations (2, 3 and 2); their trials
        # span 3, 4 and 32 blocks.
        violations = _reference_event_c_violations(0.5, check_depth, trials, seed)
        assert violations > 0
        report = event_c_check(0.5, check_depth, trials, seed)
        assert report.violations == violations
        assert report.wilson_upper_95 == wilson_ci(violations, trials)[1]

    @pytest.mark.parametrize("scale, passes", [(0.62, False), (1.0, True)])
    def test_power_against_narrowed_widths(self, monkeypatch, scale, passes):
        # At 0.62 of every width the same draws count 139 violations in
        # 4,000 trials, a rate of 0.035 above epsilon**5 = 0.03125, which a
        # rule that lets the rate reach bound + (upper - rate) would pass.
        # The paper's widths count 1.
        width = oob.analysis.eta
        monkeypatch.setattr(oob.analysis, "eta", lambda e, d: scale * width(e, d))
        report = event_c_check(0.5, 10, 4000, 1)
        assert report.violations == (139 if scale < 1 else 1)
        assert report.passed is passes

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

    @pytest.mark.parametrize("trials", [0, -3])
    def test_refuses_trials_below_one(self, trials, draws):
        # The Wilson interval is the one place that refuses it; no block is drawn.
        with pytest.raises(ValueError) as refused:
            event_c_check(0.5, 4, trials, 0)
        assert str(refused.value) == f"trials must be >= 1, got {trials}"
        assert draws == []

    @pytest.mark.parametrize("epsilon", [0.5, 0.1, 0.01, 0.001, 1e-6])
    def test_union_bound_below_epsilon_fifth(self, epsilon):
        # An interval of length d whose endpoints differ by N(0, d) exceeds
        # max(ends) + w with probability erfc(w * sqrt(2 / d)). Summed over
        # the 2**h intervals of every depth h <= 200 this bounds P(not C)
        # with no draws, at epsilons far below criterion 3's reach. At 1/2
        # the depth <= 10 part is 2.07e-4, criterion 3's Monte Carlo rate.
        assert _event_c_union_sum(epsilon) < epsilon**5

    @pytest.mark.parametrize("scale, epsilon", [(0.8, 0.1), (0.62, 0.5)])
    def test_union_bound_power(self, monkeypatch, scale, epsilon):
        # Narrowed widths break the bound (sum / epsilon**5 = 1.49 and 1.24).
        width = oob.analysis.eta
        monkeypatch.setattr(oob.analysis, "eta", lambda e, d: scale * width(e, d))
        assert _event_c_union_sum(epsilon) > epsilon**5

    def test_depth_ceiling(self, grid_depths):
        with pytest.raises(_GridReached):
            event_c_check(0.5, MAX_GRID_DEPTH, 1, 0)
        for depth in (MAX_GRID_DEPTH + 1, 34):
            with pytest.raises(
                ValueError, match=f"grid depth check_depth must be <= {MAX_GRID_DEPTH}"
            ):
                event_c_check(0.5, depth, 1, 0)
        assert grid_depths == [MAX_GRID_DEPTH]


class TestBaseline:
    @pytest.mark.parametrize("seed", range(5))
    def test_batched_oracle_matches_scalar_reference(self, seed):
        # Exact, trial by trial: the levels draw their grid trials in turn,
        # in increasing size, from one pair of grid streams. Trial counts
        # 4..8 give even and odd medians; at 8192 points a block holds 4
        # trials.
        grid_sizes, trials = (1, 16, 256, 8192), 4 + seed
        report = baseline_separation(grid_sizes=grid_sizes, trials=trials, oob_runs=1, seed=seed)
        streams = _grid_streams(seed)
        for n in grid_sizes:
            grids = _trial_grid(*streams, trials, n.bit_length() - 1)
            errors = [sups.max() - w.max() for w, sups in grids]
            assert report.metadata["median_errors"][str(n)] == float(median(errors))

    def test_added_level_keeps_earlier_levels(self):
        short = baseline_separation(grid_sizes=(16, 64), trials=7, oob_runs=1, seed=3)
        long = baseline_separation(grid_sizes=(16, 64, 256), trials=7, oob_runs=1, seed=3)
        for n in ("16", "64"):
            assert short.metadata["median_errors"][n] == long.metadata["median_errors"][n]

    def test_numpy_integer_sizes(self):
        plain = baseline_separation(grid_sizes=(16, 64), trials=3, oob_runs=1, seed=2)
        sizes = tuple(np.int64(n) for n in (16, 64))
        numpy = baseline_separation(grid_sizes=sizes, trials=3, oob_runs=1, seed=2)
        assert numpy.metadata["median_errors"] == plain.metadata["median_errors"]

    def test_validation(self, grid_depths):
        # Sizes that are not powers of two, or that are above the grid
        # ceiling, are refused before any grid is requested.
        bad = ((), (0, 16), (-4,), (3,), (16, 48), (2 << MAX_GRID_DEPTH,), (2**34,))
        for grid_sizes in bad:
            with pytest.raises(ValueError, match="positive"):
                baseline_separation(grid_sizes=grid_sizes, trials=2, oob_runs=2)
        assert grid_depths == []
        with pytest.raises(_GridReached):
            baseline_separation(grid_sizes=(1 << MAX_GRID_DEPTH,), trials=1, oob_runs=1)
        assert grid_depths == [MAX_GRID_DEPTH]

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

    def test_unreachable_epsilon_refused_before_any_draw(self, monkeypatch):
        def drew(*args):
            raise AssertionError("drew before refusing the epsilons")

        monkeypatch.setattr(oob.analysis, "_grid_blocks", drew)
        monkeypatch.setattr(oob.analysis, "run_oob", drew)
        with pytest.raises(ValueError, match="too small"):
            baseline_separation(epsilons=(0.05, 1e-9), trials=2, oob_runs=2)
        with pytest.raises(ValueError):
            baseline_separation(epsilons=(), trials=2, oob_runs=2)
        with pytest.raises(ValueError):
            baseline_separation(epsilons=(0.05,), trials=0)
        # "The smallest grid reaching eps" is the first one only in
        # increasing order; a repeated size would collapse a level.
        for grid_sizes in (tuple(2**k for k in range(14, 3, -1)), (16, 64, 64, 256)):
            with pytest.raises(ValueError, match="strictly increasing"):
                baseline_separation(grid_sizes=grid_sizes, trials=2, oob_runs=2)
