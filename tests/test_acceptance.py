"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each criterion test prints exactly one PASS/FAIL line (visible with
``pytest -s`` or in captured output) and then asserts, so a red run still
reports the measured numbers for every criterion that executed.
"""

from __future__ import annotations

import math
import subprocess
import sys

import numpy as np
import pytest

from oob import (
    RandomSource,
    baseline_separation,
    bridge_max_exceed_prob,
    bridge_max_from_uniforms,
    compute_h_max,
    derive_seed,
    event_c_check,
    lemma3_mc,
    pac_estimate,
)
from oob.cli import DEFAULT_SWEEP_EPSILONS
from oob.cli import _run_sweep as run_sweep
from oob.optimizer import _search

pytestmark = pytest.mark.acceptance


def _gate(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status}  {detail}", flush=True)
    assert ok, f"criterion {number} ({label}): {detail}"


def test_criterion_1_pac_guarantee():
    # 500 runs per epsilon, each scored by its exact failure probability
    # P(M - m_hat > eps | evaluations); the Wilson 95% upper limit on the
    # mean must stay within epsilon + 0.02.
    parts = []
    ok = True
    for offset, epsilon in enumerate((0.1, 0.05, 0.01)):
        report = pac_estimate(epsilon, trials=500, seed=101 + offset)
        upper = report.wilson_upper_95
        ok = ok and upper <= epsilon + 0.02
        parts.append(f"eps={epsilon}: rate={report.empirical_rate:.3g} "
                     f"upper={upper:.3g} limit={epsilon + 0.02}")
    _gate(1, "pac guarantee", ok, "; ".join(parts))


def test_criterion_2_sample_complexity_shape():
    # Mean evaluation counts over 250 runs per epsilon must be nearly
    # linear in ln^2(1/eps), and the smallest epsilon must respect the
    # structural evaluation cap 2^(h_max + 1).
    counts = {epsilon: [] for epsilon in DEFAULT_SWEEP_EPSILONS}
    for run in run_sweep(DEFAULT_SWEEP_EPSILONS, trials=250, seed=2026):
        counts[run.epsilon].append(run.n_evals)
    means = []
    for epsilon in DEFAULT_SWEEP_EPSILONS:
        assert len(counts[epsilon]) == 250
        means.append(sum(counts[epsilon]) / len(counts[epsilon]))
    x = np.array([math.log(1.0 / e) ** 2 for e in DEFAULT_SWEEP_EPSILONS])
    y = np.array(means)
    slope, intercept = np.polyfit(x, y, 1)
    residual = float(np.sum((y - (slope * x + intercept)) ** 2))
    r_squared = 1.0 - residual / float(np.sum((y - y.mean()) ** 2))
    cap = 2 ** (compute_h_max(0.001) + 1)
    worst = max(counts[0.001])
    ok = r_squared >= 0.95 and worst <= cap
    _gate(2, "complexity shape", ok,
          f"r_squared={r_squared:.5f} (need >=0.95), "
          f"max n_evals at eps=0.001: {worst} <= cap {cap}")


def test_criterion_3_event_c_rate():
    report = event_c_check(epsilon=0.5, check_depth=10, trials=100_000, seed=2030)
    upper = report.wilson_upper_95
    ok = report.empirical_rate <= 0.03125 and upper <= 0.03125 + 0.005
    _gate(3, "event C rate", ok,
          f"rate={report.empirical_rate:.3g} upper={upper:.3g} "
          f"bound=0.03125 slack=0.005")


def test_criterion_4_near_optimal_counts():
    parts = []
    ok = True
    for offset, (h, eta_value) in enumerate(((6, 0.1), (8, 0.05), (10, 0.05))):
        report = lemma3_mc(h, eta_value, trials=10_000, seed=2041 + offset)
        meta = report.metadata
        ok = ok and report.passed
        parts.append(f"(h={h}, eta={eta_value}): mean+3se="
                     f"{meta['mean_plus_3se']:.3g} bound={report.bound:.3g}")
    _gate(4, "near-optimal counts", ok, "; ".join(parts))


def test_criterion_5_bridge_max_law():
    from scipy.stats import kstest

    rng = RandomSource(2050)
    draws = bridge_max_from_uniforms(rng.uniforms_open(100_000), 1.0, 0.0, 0.0)
    result = kstest(draws, lambda x: 1.0 - np.exp(-2.0 * x * x))

    # Exact inversion: exceedance probability and inverse must round-trip.
    worst = 0.0
    for x in np.linspace(0.05, 3.0, 60):
        u = bridge_max_exceed_prob(0.0, 1.0, 0.0, 0.0, x)
        back = float(bridge_max_from_uniforms(u, 1.0, 0.0, 0.0))
        worst = max(worst, abs(back - x) / max(1.0, abs(x)))
    for x in np.linspace(0.45, 2.0, 40):
        u = bridge_max_exceed_prob(0.25, 0.75, 0.4, -0.2, x)
        back = float(bridge_max_from_uniforms(u, 0.5, 0.4, -0.2))
        worst = max(worst, abs(back - x) / max(1.0, abs(x)))

    ok = result.pvalue > 0.01 and worst <= 1e-12
    _gate(5, "bridge-max law", ok,
          f"ks pvalue={result.pvalue:.4f} (need >0.01), "
          f"round-trip error={worst:.2e} (need <=1e-12)")


def test_criterion_6_reflection_probability():
    # One endpoint normal plus one bridge-max inversion per trial is an
    # exact draw of the global maximum; P(M >= 1) = 2 * (1 - Phi(1)).
    n = 100_000
    rng = RandomSource(2060)
    w1 = rng.normals(n)
    u = rng.uniforms_open(n)
    m = bridge_max_from_uniforms(u, 1.0, 0.0, w1)
    p0 = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))))
    se = math.sqrt(p0 * (1.0 - p0) / n)
    rate = float(np.mean(m >= 1.0))
    ok = abs(rate - p0) <= 3.0 * se
    _gate(6, "reflection probability", ok,
          f"rate={rate:.5f} target={p0:.5f} tolerance={3.0 * se:.5f}")


def test_criterion_7_baseline_separation():
    report = baseline_separation()
    ratios = report.metadata["cost_ratios"]
    monotone = all(ratios[i] <= ratios[i + 1] for i in range(len(ratios) - 1))
    ok = report.passed and monotone and ratios[-1] >= 3.0
    _gate(7, "baseline separation", ok,
          f"cost ratios={[round(r, 2) for r in ratios]} "
          f"(monotone, final >= 3), required grid n="
          f"{report.metadata['required_grid_n']}")


def test_criterion_8_byte_determinism(tmp_path):
    commands = [
        ["run", "--epsilon", "0.1", "--seed", "7"],
        ["sweep", "--epsilons", "0.1,0.05", "--trials", "5", "--seed", "3"],
        ["sweep", "--epsilons", "0.1,0.05", "--trials", "5", "--seed", "3",
         "--format", "json"],
        ["verify", "pac", "--epsilon", "0.1", "--trials", "40", "--seed", "1"],
        ["verify", "lemma3", "--depth", "4", "--trials", "50", "--seed", "2"],
        ["verify", "eventc", "--depth", "4", "--trials", "200", "--seed", "3"],
        ["verify", "baseline", "--trials", "3", "--seed", "2"],
    ]
    ok = True
    parts = []
    for index, command in enumerate(commands):
        outputs = []
        for attempt in ("a", "b"):
            target = tmp_path / f"{index}_{attempt}.out"
            done = subprocess.run(
                [sys.executable, "-m", "oob.cli", *command, "--out", str(target)],
                capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(target.read_bytes())
        identical = outputs[0] == outputs[1]
        ok = ok and identical
        parts.append(f"{' '.join(command)}: {'identical' if identical else 'DIFFERS'}")
    _gate(8, "byte determinism", ok, "; ".join(parts))


def _residuals(trace) -> np.ndarray:
    """A run's standardized residuals, one per trace point, from the trace alone.

    The first point is W(1), so z = W(1). A later point t = (2k+1) * 2**-j
    is a bridge midpoint between its parents t - 2**-j and t + 2**-j, each
    earlier in the trace or t = 0, so
    z = (w - (w(t - 2**-j) + w(t + 2**-j)) / 2) / sqrt(2**-(j+1)). Every
    trace time is a dyadic double, so ``as_integer_ratio`` gives j exactly.
    A parent missing from the trace raises ``KeyError``.
    """
    (t1, w1), *later = trace
    assert t1 == 1.0
    known = {0.0: 0.0, 1.0: w1}
    z = [w1]
    for t, w in later:
        j = t.as_integer_ratio()[1].bit_length() - 1
        half = math.ldexp(1.0, -j)
        z.append((w - 0.5 * (known[t - half] + known[t + half])) / math.sqrt(0.5 * half))
        known[t] = w
    return np.array(z)


def _law_audit(epsilon: float, root: int, runs: int = 40, law=None) -> tuple[float, float]:
    """Mean and variance z-scores of the residuals of ``runs`` runs at ``epsilon``.

    Run r is ``run_oob(epsilon, derive_seed(root, r))``; ``law`` maps each
    standard Gaussian the loop draws to the one it uses instead (a mutant).
    A run's length is a stopping time of its draws, so its residuals are
    not i.i.d. and the unit is the run: by Wald's identity each run's sum
    of z and sum of z**2 - 1 have mean 0, and the runs are independent.
    Each z-score is the mean of one per-run sum over its standard error.
    """
    sums = []
    for r in range(runs):
        seed = derive_seed(root, r)
        feed = RandomSource(seed).normal_feed()
        draw = feed if law is None else lambda: law(feed())
        z = _residuals(_search(epsilon, seed, draw).trace)
        sums.append((z.sum(), (z * z - 1.0).sum()))
    sums = np.array(sums)
    z = sums.mean(axis=0) / (sums.std(axis=0, ddof=1) / math.sqrt(runs))
    return float(z[0]), float(z[1])


_AUDIT_ROOTS = {0.1: 2110, 0.01: 2111}


def test_criterion_11_trace_law_audit():
    # Every point of every trace must be drawn from the Brownian law given
    # its parents; 40 runs per epsilon, both z-scores within 4.
    parts = []
    ok = True
    for epsilon, root in _AUDIT_ROOTS.items():
        z_mean, z_var = _law_audit(epsilon, root)
        ok = ok and abs(z_mean) <= 4.0 and abs(z_var) <= 4.0
        parts.append(f"eps={epsilon}: mean z={z_mean:+.2f} variance z={z_var:+.2f}")
    _gate(11, "trace law audit", ok, "; ".join(parts) + " (need |z| <= 4)")


def test_criterion_11_residuals_are_the_draws():
    # The audit reads back, from the trace alone, the Gaussians the loop drew.
    feed = RandomSource(7).normal_feed()
    drawn = []

    def draw():
        drawn.append(feed())
        return drawn[-1]

    trace = _search(0.01, 7, draw).trace
    assert np.max(np.abs(_residuals(trace) - drawn)) <= 1e-12


@pytest.mark.parametrize(
    "epsilon,law,statistic",
    [
        pytest.param(0.01, lambda z: 0.95 * z, 1, id="sd x0.95"),
        pytest.param(0.01, lambda z: 1.1 * z, 1, id="sd x1.1"),
        pytest.param(0.01, lambda z: 0.8 * z, 1, id="sd x0.8"),
        pytest.param(0.1, lambda z: z + 0.1, 0, id="mean +0.1sd eps=0.1"),
        pytest.param(0.01, lambda z: z + 0.1, 0, id="mean +0.1sd eps=0.01"),
    ],
)
def test_criterion_11_kills_wrong_midpoint_laws(epsilon, law, statistic):
    # The same runs as the criterion, each Gaussian the loop draws mapped
    # through a wrong law: the audit must see it at |z| > 4.
    assert abs(_law_audit(epsilon, _AUDIT_ROOTS[epsilon], law=law)[statistic]) > 4.0
