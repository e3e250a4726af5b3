"""Acceptance gate: every advertised guarantee at its stated tolerance.

Each test prints exactly one PASS/FAIL line (visible with ``pytest -s``
or in captured output) and then asserts, so a red run still reports the
measured numbers for every criterion that executed.
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
    event_c_check,
    lemma3_mc,
    pac_estimate,
)
from oob.cli import DEFAULT_SWEEP_EPSILONS
from oob.cli import _run_sweep as run_sweep

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
