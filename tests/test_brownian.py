"""Lazy path sampling and the bridge-maximum law.

Statistical tests use fixed seeds, so they are deterministic reruns of a
draw that was checked to sit within its stated tolerance.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oob import RandomSource, bridge_max_exceed_prob, bridge_max_from_uniforms
from oob.brownian import BrownianPath, bridge_max_sample, new_path


def _paths(seed, n):
    """``n`` paths on one shared stream, each used up before the next is built.

    The paths take consecutive stretches of one stream, so they are
    independent; seeding one stream per path would cost far more.
    """
    rng = RandomSource(seed)
    return (BrownianPath(rng) for _ in range(n))


class TestPathBasics:
    def test_fresh_path_holds_origin_only(self):
        path = new_path(42)
        assert path.value_count == 1
        assert path.evaluations() == [(0.0, 0.0)]
        assert path.evaluate(0.0) == 0.0

    def test_evaluate_zero_consumes_no_randomness(self):
        path = new_path(42)
        path.evaluate(0.0)
        # The next Gaussian drawn must be the seed's very first one.
        assert path.evaluate(1.0) == RandomSource(42).normal()

    def test_domain_errors(self):
        path = new_path(0)
        for t in (-0.1, 1.0000001, 5.0):
            with pytest.raises(ValueError):
                path.evaluate(t)

    def test_repeat_query_is_a_lookup(self):
        path = new_path(7)
        w1 = path.evaluate(1.0)
        wm = path.evaluate(0.5)
        count = path.value_count
        assert path.evaluate(1.0) == w1
        assert path.evaluate(0.5) == wm
        assert path.value_count == count
        # A twin path that skips the repeats sees the same later draw.
        twin = new_path(7)
        twin.evaluate(1.0)
        twin.evaluate(0.5)
        assert path.evaluate(0.25) == twin.evaluate(0.25)

    def test_same_seed_same_values(self):
        a, b = new_path(1234), new_path(1234)
        for t in (1.0, 0.5, 0.75, 0.125):
            assert a.evaluate(t) == b.evaluate(t)

    def test_distinct_seeds_differ(self):
        assert new_path(1).evaluate(1.0) != new_path(2).evaluate(1.0)

    def test_evaluations_sorted(self):
        path = new_path(8)
        for t in (1.0, 0.5, 0.25, 0.75, 0.375):
            path.evaluate(t)
        times = [t for t, _ in path.evaluations()]
        assert times == sorted(times)
        assert times[0] == 0.0

    @pytest.mark.parametrize("n", [1, 3, 5, 7, 16, 1000])
    def test_batched_walk_matches_lazy_path(self, n):
        # Bit-equal, no tolerance, to n Gaussians each scaled by its step's
        # sqrt before an in-order sum: every point lies beyond the last
        # stored one, so this pins that branch of evaluate.
        t = np.arange(n + 1) / n
        for seed in (0, 1, 2, 77, 2**63 + 5, 2**64 - 1):
            path = new_path(seed)
            walk = [path.evaluate(k / n) for k in range(1, n + 1)]
            reference = np.cumsum(np.sqrt(np.diff(t)) * RandomSource(seed).normals(n))
            assert walk == reference.tolist()


class TestPathDistribution:
    def test_endpoint_is_standard_normal(self):
        # 1e5 independent paths; KS against the standard normal plus
        # moment checks at 3 standard errors.
        scipy_stats = pytest.importorskip("scipy.stats")
        n = 100_000
        draws = np.array([path.evaluate(1.0) for path in _paths(31, n)])
        assert scipy_stats.kstest(draws, "norm").pvalue > 0.01
        assert abs(draws.mean()) <= 3.0 / math.sqrt(n)
        assert abs(draws.var(ddof=1) - 1.0) <= 3.0 * math.sqrt(2.0 / n)

    def test_midpoint_bridge_moments(self):
        # W(1/2) - W(1)/2 is N(0, 1/4) regardless of the endpoint draw.
        n = 100_000
        dev = np.empty(n)
        for j, path in enumerate(_paths(29, n)):
            w1 = path.evaluate(1.0)
            dev[j] = path.evaluate(0.5) - 0.5 * w1
        assert abs(dev.mean()) <= 3.0 * 0.5 / math.sqrt(n)
        assert abs(dev.var(ddof=1) - 0.25) <= 3.0 * 0.25 * math.sqrt(2.0 / n)

    def test_refinement_covariance(self):
        # Recursive midpoint refinement to depth 3 must reproduce the
        # Brownian covariance min(s, t) on the quarter grid. The product
        # estimator W(s)W(t) has variance s*t + min(s,t)**2 for s <= t.
        n = 100_000
        pts = (0.25, 0.5, 0.75, 1.0)
        order = (1.0, 0.5, 0.25, 0.75, 0.125, 0.375, 0.625, 0.875)
        acc = np.empty((n, len(pts)))
        for j, path in enumerate(_paths(23, n)):
            for t in order:
                path.evaluate(t)
            look = dict(path.evaluations())
            acc[j] = [look[t] for t in pts]
        for i, s in enumerate(pts):
            assert abs(acc[:, i].mean()) <= 3.0 * math.sqrt(s / n)
            for k, t in enumerate(pts):
                if s <= t:
                    emp = float(np.mean(acc[:, i] * acc[:, k]))
                    se = math.sqrt((s * t + s * s) / n)
                    assert abs(emp - s) <= 3.0 * se

    def test_reflection_principle_smoke(self):
        # M = max(W(1), bridge max over [0,1]) satisfies
        # P(M >= 1) = 2*(1 - Phi(1)). Acceptance runs the full-size check.
        n = 20_000
        hits = 0
        for path in _paths(17, n):
            z = path.evaluate(1.0)
            m = max(z, bridge_max_sample(path.rng, 0.0, 1.0, 0.0, z))
            hits += m >= 1.0
        p0 = 0.31731050786291415
        se = math.sqrt(p0 * (1.0 - p0) / n)
        assert abs(hits / n - p0) <= 3.0 * se


class TestExceedProb:
    def test_frozen_values(self):
        assert bridge_max_exceed_prob(0.0, 1.0, 0.0, 0.0, 0.0) == 1.0
        # exp(-2 * 1 * 1 / 1) = e^-2
        assert bridge_max_exceed_prob(0.0, 1.0, 0.0, 0.0, 1.0) == pytest.approx(
            0.1353352832366127, rel=1e-15
        )

    def test_monotone_vanishing_tail(self):
        xs = np.linspace(0.0, 6.0, 50)
        ps = [bridge_max_exceed_prob(0.0, 1.0, 0.0, 0.0, x) for x in xs]
        assert all(a >= b for a, b in zip(ps, ps[1:]))
        assert bridge_max_exceed_prob(0.0, 1.0, 0.0, 0.0, 40.0) < 1e-300

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            bridge_max_exceed_prob(0.0, 1.0, 0.5, -0.1, 0.2)  # x below an endpoint
        with pytest.raises(ValueError):
            bridge_max_exceed_prob(1.0, 1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            bridge_max_exceed_prob(0.7, 0.2, 0.0, 0.0, 1.0)
        for wa, wb, x in ((0.0, 0.0, math.nan), (math.nan, 0.0, 1.0), (0.0, math.nan, 1.0)):
            with pytest.raises(ValueError):
                bridge_max_exceed_prob(0.0, 1.0, wa, wb, x)

    def test_elementwise_matches_scalar_calls(self):
        # Arrays broadcast cell by cell: each element is the scalar call's
        # value, and one bad cell anywhere refuses the whole call.
        rng = RandomSource(19)
        a = np.sort(rng.uniforms_open(32)) * 0.5
        b = a + rng.uniforms_open(32) * 0.5
        wa, wb = rng.normals(32), rng.normals(32)
        x = float(np.maximum(wa, wb).max()) + 0.5
        probs = bridge_max_exceed_prob(a, b, wa, wb, x)
        assert probs.shape == (32,)
        for i in range(32):
            assert probs[i] == bridge_max_exceed_prob(a[i], b[i], wa[i], wb[i], x)
        for name, value in (("b", a[3]), ("wa", math.nan), ("wb", math.inf)):
            cells = {"a": a, "b": b.copy(), "wa": wa.copy(), "wb": wb.copy()}
            cells[name][3] = value
            with pytest.raises(ValueError):
                bridge_max_exceed_prob(**cells, x=x)
        with pytest.raises(ValueError):
            bridge_max_exceed_prob(a, b, wa, wb, np.where(np.arange(32) == 5, -9.0, x))

    def test_monte_carlo_cross_check(self):
        # Discrete bridge on a depth-12 grid; its running max slightly
        # undershoots the continuous sup, so the empirical exceedance sits
        # just below the closed form at x=1, within bias + noise bands.
        rng = np.random.Generator(np.random.PCG64(37))
        trials, cells = 20_000, 4096
        z = rng.standard_normal((trials, cells))
        w = np.cumsum(z, axis=1) * math.sqrt(1.0 / cells)
        t = np.linspace(1.0 / cells, 1.0, cells)
        bridge = w - t[None, :] * w[:, -1:]
        p_grid = float(np.mean(bridge.max(axis=1) > 1.0))
        exact = bridge_max_exceed_prob(0.0, 1.0, 0.0, 0.0, 1.0)
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert p_grid <= exact + 3.0 * se
        assert p_grid >= exact - 0.015  # grid bias is about 0.005 here


def _closed_form(u, lengths, left, right):
    """The inverse as one expression: the reference for its in-place steps."""
    m = 0.5 * (left + right)
    d = 0.5 * (left - right)
    return np.maximum(m + np.sqrt(d * d - 0.5 * lengths * np.log(u)), np.maximum(left, right))


def _inverse_inputs(kind):
    """(u, lengths, left, right) of one input kind of the inverse."""
    rng = RandomSource(83)
    if kind == "scalars":
        return 0.37, 0.25, 0.3, -0.1
    if kind == "1-d":
        return rng.uniforms_open(100), rng.uniforms_open(100), rng.normals(100), rng.normals(100)
    if kind == "broadcast":
        return rng.uniforms_open((3, 64)), np.full(64, 1.0 / 64), rng.normals(64), rng.normals(64)
    w = np.zeros((32, 1025))
    np.cumsum(rng.normals(32 * 1024).reshape(32, 1024), axis=1, out=w[:, 1:])
    w[:, 1:] *= math.sqrt(1.0 / 1024)
    return rng.uniforms_open((32, 1024)), 1.0 / 1024, w[:, :-1], w[:, 1:]


class TestBridgeMaxSampler:
    @pytest.mark.parametrize("kind", ["scalars", "1-d", "broadcast", "strided views"])
    def test_in_place_steps_match_closed_form_bits(self, kind):
        u, lengths, left, right = _inverse_inputs(kind)
        before = [np.array(x, copy=True).tobytes() for x in (u, left, right)]
        expected = _closed_form(u, lengths, left, right)
        assert bridge_max_from_uniforms(u, lengths, left, right).tobytes() == expected.tobytes()
        out = np.empty(np.shape(expected))
        scratch = np.empty(np.broadcast_shapes(np.shape(left), np.shape(right)))
        result = bridge_max_from_uniforms(u, lengths, left, right, out=out, scratch=scratch)
        assert result is out
        assert out.tobytes() == expected.tobytes()
        assert bridge_max_from_uniforms(u, lengths, left, right, out=out).tobytes() == (
            expected.tobytes()
        )
        assert [np.array(x, copy=True).tobytes() for x in (u, left, right)] == before
        if kind != "scalars":  # out may be u itself, as the grid walk inverts its uniforms
            result = bridge_max_from_uniforms(u, lengths, left, right, out=u, scratch=scratch)
            assert result is u
            assert u.tobytes() == expected.tobytes()

    def test_scalar_inputs_give_a_scalar(self):
        x = bridge_max_from_uniforms(0.37, 0.25, 0.3, -0.1)
        assert isinstance(x, float) and np.ndim(x) == 0


    def test_u_one_returns_max_endpoint_exactly(self):
        assert bridge_max_from_uniforms(1.0, 0.5, 0.3, -0.1) == 0.3
        assert bridge_max_from_uniforms(1.0, 0.5, -0.1, 0.3) == 0.3
        assert bridge_max_from_uniforms(1.0, 1.0, -2.0, -2.0) == -2.0

    def test_frozen_inversions(self):
        # 0.1 + sqrt(0.04 + 0.25*ln 2)
        assert bridge_max_from_uniforms(0.5, 0.5, 0.3, -0.1) == pytest.approx(
            0.56182983353177429, rel=1e-15
        )
        # Inverting the exceedance probability of x=1 recovers x=1.
        assert bridge_max_from_uniforms(math.exp(-2.0), 1.0, 0.0, 0.0) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_sample_consumes_one_uniform(self):
        rng = RandomSource(55)
        twin = RandomSource(55)
        x = bridge_max_sample(rng, 0.2, 0.7, 0.1, 0.4)
        assert x == bridge_max_from_uniforms(twin.uniform_open(), 0.7 - 0.2, 0.1, 0.4)
        assert rng.normal() == twin.normal()  # streams still aligned

    def test_sample_dominates_endpoints(self):
        rng = RandomSource(60)
        for _ in range(500):
            wa, wb = rng.normal(), rng.normal()
            assert bridge_max_sample(rng, 0.0, 0.3, wa, wb) >= max(wa, wb)

    def test_domain_errors(self):
        rng = RandomSource(0)
        with pytest.raises(ValueError):
            bridge_max_sample(rng, 0.5, 0.5, 0.0, 0.0)

    @given(
        wa=st.floats(-10.0, 10.0),
        wb=st.floats(-10.0, 10.0),
        a=st.floats(0.0, 0.9),
        width=st.floats(0.05, 1.0),
        excess=st.floats(0.0, 3.0),
    )
    @settings(max_examples=200, deadline=None)
    # u = exp(-2 x**2) rounds to 1 - 2**-53 here, whose exact inverse is
    # 7.45e-9: no x finer than the spacing of u near 1 can come back.
    @example(wa=0.0, wb=0.0, a=0.0, width=1.0, excess=6.21e-9)
    def test_round_trip_inversion(self, wa, wb, a, width, excess):
        # exceed -> invert recovers x to relative 1e-12, plus the error
        # that rounding u itself forces: two ulps of u over |du/dx|.
        # Parameter ranges keep the exceedance probability above the
        # double underflow line, so u is never flushed to zero.
        b = min(a + width, 1.0)
        x = max(wa, wb) + excess * math.sqrt(b - a)
        u = bridge_max_exceed_prob(a, b, wa, wb, x)
        back = float(bridge_max_from_uniforms(u, b - a, wa, wb))
        tol = 1e-12 * max(1.0, abs(x))
        slope = u * 2.0 * abs(2.0 * x - wa - wb) / (b - a)
        if slope > 0.0:  # zero only at x = wa = wb, where u = 1 inverts exactly
            tol += 2.0 * math.ulp(u) / slope
        assert abs(back - x) <= tol

    def test_vectorized_matches_scalar(self):
        # Every cell of a broadcast (3, 64) batch inverts the scalar
        # exceedance law: feeding the result back returns its own u.
        rng = RandomSource(71)
        left = rng.normals(64)
        right = rng.normals(64)
        lengths = np.full(64, 1.0 / 64)
        u = rng.uniforms_open((3, 64))
        batch = bridge_max_from_uniforms(u, lengths, left, right)
        assert batch.shape == (3, 64)
        for r in range(3):
            for i in range(64):
                prob = bridge_max_exceed_prob(
                    0.0, float(lengths[i]), float(left[i]), float(right[i]), float(batch[r, i])
                )
                assert prob == pytest.approx(u[r, i], rel=1e-12)
        assert np.all(batch >= np.maximum(left, right))
