"""Confidence widths, depth caps, and the interval-splitting loop."""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oob import RandomSource, compute_h_max, eta, optimizer, run_oob
from oob.optimizer import new_path, run_oob_on_path


class TestEta:
    def test_frozen_values(self):
        # sqrt(2.5 * ln 4) and sqrt(2.5 * ln 8)
        assert eta(0.5, 1.0) == pytest.approx(1.861648705529517, rel=1e-15)
        assert eta(0.25, 1.0) == pytest.approx(2.2800447044300665, rel=1e-15)

    def test_boundary_product_allowed(self):
        # epsilon*delta = 1/2 exactly is inside the domain.
        assert eta(1.0, 0.5) == pytest.approx(1.3163844238670797, rel=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            eta(0.6, 1.0)  # product 0.6 > 1/2
        with pytest.raises(ValueError):
            eta(0.0, 1.0)
        with pytest.raises(ValueError):
            eta(0.1, 0.0)
        with pytest.raises(ValueError):
            eta(0.1, -1.0)
        with pytest.raises(ValueError):
            eta(1e-320, 2.0**-60)  # product underflows to 0


class TestHMax:
    @pytest.mark.parametrize(
        "epsilon,expected",
        [(0.25, 9), (0.1, 12), (0.01, 19), (0.001, 26)],
    )
    def test_frozen_values(self, epsilon, expected):
        assert compute_h_max(epsilon) == expected

    def test_scan_boundaries(self):
        # The depth just above the answer must still be too wide.
        assert eta(0.25, 2.0**-8) > 0.25
        assert eta(0.25, 2.0**-9) <= 0.25
        assert eta(0.01, 2.0**-18) > 0.01
        assert eta(0.01, 2.0**-19) <= 0.01

    def test_domain_errors(self):
        for bad in (0.5, 0.7, 0.0, -0.1):
            with pytest.raises(ValueError):
                compute_h_max(bad)

    # Floor at 1e-6: far smaller targets need depths past the 53-level
    # cap (1e-7 already wants h = 54), which are refused.
    @given(st.floats(1e-6, 0.4999))
    @settings(max_examples=200, deadline=None)
    def test_postcondition(self, epsilon):
        h = compute_h_max(epsilon)
        assert eta(epsilon, 2.0**-h) <= epsilon
        for smaller in range(h):
            assert eta(epsilon, 2.0**-smaller) > epsilon

    def test_depth_cap_is_hard_error(self):
        # The smallest reachable epsilon is about 1.217e-7, reached at h = 53.
        assert compute_h_max(1.217e-7) == 53
        for tiny in (1.216e-7, 2e-8, 1e-9, 1e-320):
            with pytest.raises(ValueError):
                compute_h_max(tiny)


# (epsilon, seed) pairs whose runs the replay re-derives.
REPLAY_CASES = [(0.1, 5), (0.05, 12), (0.2, 5), (0.05, 3), (0.01, 8)]


def _replay_partition(result):
    """Rebuild the split sequence from the trace and re-check selection.

    Independent of the optimizer's own bookkeeping: every interval is a
    plain (bound, width) pair keyed by its dyadic index (h, k), recomputed
    from the traced values. Returns the final partition as
    {(h, k): (bound, width)}. Raises if any split was not the
    deterministic argmax of the bound at its time, or if the active set
    ever stops tiling [0, 1].
    """
    values = dict(result.trace)
    values[0.0] = 0.0
    epsilon = result.epsilon

    def make(h, k):
        width = eta(epsilon, 2.0**-h)
        wa = values[math.ldexp(k, -h)]
        wb = values[math.ldexp(k + 1, -h)]
        return max(wa, wb) + width, width

    active = {(0, 0): make(0, 0)}
    for t, _ in result.trace[1:]:
        num, denom = float(t).as_integer_ratio()
        depth = denom.bit_length() - 1  # t = num / 2**depth with num odd
        parent = (depth - 1, (num - 1) // 2)
        assert parent in active, f"split of inactive interval {parent}"
        best_key = min((-bound, h, k) for (h, k), (bound, _) in active.items())
        bound, width = active.pop(parent)
        assert (-bound, *parent) == best_key
        assert width > epsilon  # split intervals are still wide
        for child_k in (2 * parent[1], 2 * parent[1] + 1):
            active[(depth, child_k)] = make(depth, child_k)
        covered = sum(Fraction(1, 1 << h) for h, _ in active)
        assert covered == 1
    return active


class TestRunLoop:
    def test_deterministic(self):
        assert run_oob(0.1, 99) == run_oob(0.1, 99)

    def test_epsilon_validation(self):
        for bad in (0.5, 0.6, 0.0, -0.2):
            with pytest.raises(ValueError):
                run_oob(bad, 1)
            with pytest.raises(ValueError):
                run_oob_on_path(bad, new_path(1))

    @pytest.mark.parametrize(
        "epsilon,seed", [(0.3, 1), (0.1, 2), (0.05, 3), (0.02, 4)]
    )
    def test_result_invariants(self, epsilon, seed):
        result = run_oob(epsilon, seed)
        assert result.epsilon == epsilon
        assert result.seed == seed
        assert result.h_max == compute_h_max(epsilon)
        assert result.n_evals == len(result.trace)
        assert result.n_evals <= 2 ** (result.h_max + 1)
        assert result.trace[0][0] == 1.0
        values = dict(result.trace)
        values[0.0] = 0.0
        assert result.m_hat == max(values.values())
        assert values[result.t_hat] == result.m_hat
        assert result.m_hat >= 0.0
        for t, _ in result.trace:
            num, denom = float(t).as_integer_ratio()
            assert denom.bit_length() - 1 <= result.h_max  # never splits past h_max

    def test_path_holds_origin_plus_trace(self):
        path = new_path(11)
        result = run_oob_on_path(0.2, path)
        assert path.evaluations() == [(0.0, 0.0), *sorted(result.trace)]
        assert path.value_count == result.n_evals + 1

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    @pytest.mark.parametrize(
        "epsilon", [0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 1e-6]
    )
    def test_loop_matches_general_sampler(self, epsilon, seed):
        # The loop draws each midpoint in closed form; the general lazy
        # sampler queried at the same times in the same order must give
        # the same values, leave the same stored points and the stream at
        # the same place, for Gaussians and for uniforms. run_oob's batched
        # feed must give the result of these scalar draws.
        path = new_path(seed)
        result = run_oob_on_path(epsilon, path)
        assert result == run_oob(epsilon, seed)
        reference = new_path(seed)
        assert [reference.evaluate(t) for t, _ in result.trace] == [
            w for _, w in result.trace
        ]
        assert path.evaluations() == reference.evaluations()
        assert list(path.rng.uniforms_open(8)) == list(reference.rng.uniforms_open(8))
        assert path.rng.normal() == reference.rng.normal()

    def test_run_makes_no_scalar_draws(self, monkeypatch):
        # run_oob takes its Gaussians from the batched feed, never one
        # normal() call per evaluation.
        calls = []
        scalar = RandomSource.normal

        def record(self):
            calls.append(self.seed)
            return scalar(self)

        monkeypatch.setattr(RandomSource, "normal", record)
        result = run_oob(0.01, 4)
        assert result.n_evals > 128
        assert calls == []

    @pytest.mark.parametrize("epsilon,seed", REPLAY_CASES)
    def test_selection_replay(self, epsilon, seed):
        # Re-derive every selection decision from the trace alone: each
        # split must hit the max-bound interval with (depth, index)
        # tie-breaking, the active set must tile [0, 1] throughout, and
        # the loop must stop on a selected interval that is narrow enough.
        result = run_oob(epsilon, seed)
        final = _replay_partition(result)
        best = min((-bound, h, k) for (h, k), (bound, _) in final.items())
        selected_bound, selected_width = final[best[1], best[2]]
        assert selected_width <= epsilon
        # The run stops on the floor the loop prunes its heap with.
        assert selected_bound == result.m_hat + eta(epsilon, 2.0**-result.h_max)
        # Stopping consults the selected interval only: wide intervals may
        # survive, they just cannot carry the highest bound.
        survivors = [bound for bound, width in final.values() if width > epsilon]
        assert all(bound <= selected_bound for bound in survivors)
        assert any(h < result.h_max for h, _ in final)

    @pytest.mark.parametrize("corrupt", [
        lambda b, h, k, wa, wb: (b - 0.05, h, k, wa, wb),  # bound 0.05 too high
        lambda b, h, k, wa, wb: (b, h, k - 1, wa, wb),  # index one to the left
    ], ids=["bound", "index"])
    def test_replay_catches_corrupt_heap(self, corrupt, monkeypatch):
        # Each right child (odd k) the loop keeps is corrupted, whether
        # heapreplace or heappush keeps it; the replay, which never reads
        # the heap, must notice on every replay case.
        def right_corrupted(keep):
            return lambda heap, entry: keep(heap, corrupt(*entry) if entry[2] % 2 else entry)

        monkeypatch.setattr(optimizer, "heapq", SimpleNamespace(
            heappop=heapq.heappop,
            heapreplace=right_corrupted(heapq.heapreplace),
            heappush=right_corrupted(heapq.heappush),
        ))
        for epsilon, seed in REPLAY_CASES:
            with pytest.raises(AssertionError):
                _replay_partition(run_oob(epsilon, seed))

    def test_used_path_is_refused_without_a_draw(self):
        # The loop draws from the stream as if the path held only W(0), so
        # a path holding more, including one a run already used, is refused.
        path = new_path(21)
        path.evaluate(0.5)
        twin = RandomSource(21)
        twin.normal()
        with pytest.raises(ValueError, match="only W\\(0\\)"):
            run_oob_on_path(0.05, path)
        assert path.value_count == 2
        assert path.rng.normal() == twin.normal()
        used = new_path(21)
        run_oob_on_path(0.05, used)
        with pytest.raises(ValueError, match="only W\\(0\\)"):
            run_oob_on_path(0.05, used)

    def test_optimism_steers_splits(self):
        # Seed 3 draws W(1) = +2.04: early midpoints chase the right edge.
        # Seed 10 draws W(1) = -1.10: early midpoints stay left where
        # W(0) = 0 is the best known value.
        right = run_oob_on_path(0.3, new_path(3))
        mids_right = [t for t, _ in right.trace[1:6]]
        assert sum(t >= 0.5 for t in mids_right) >= 4
        left = run_oob_on_path(0.3, new_path(10))
        mids_left = [t for t, _ in left.trace[1:6]]
        assert sum(t <= 0.5 for t in mids_left) >= 4

    def test_cost_grows_as_epsilon_shrinks(self):
        def mean_evals(epsilon):
            runs = 40
            return sum(run_oob(epsilon, seed).n_evals for seed in range(runs)) / runs

        coarse = mean_evals(0.1)
        mid = mean_evals(0.02)
        fine = mean_evals(0.004)
        assert coarse < mid < fine
