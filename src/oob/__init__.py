"""Optimistic optimization of a lazily sampled Brownian motion on [0, 1].

The package has four layers: deterministic random streams (:mod:`oob.rng`),
exact lazy Brownian sampling and bridge-maximum laws (:mod:`oob.brownian`),
the interval-splitting optimizer (:mod:`oob.optimizer`), and Monte Carlo
verification harnesses with a CLI (:mod:`oob.analysis`, :mod:`oob.cli`).
"""

from .analysis import (
    MAX_GRID_DEPTH,
    VerificationReport,
    Z95,
    baseline_separation,
    conditional_max_samples,
    event_c_check,
    lemma3_mc,
    pac_estimate,
    wilson_ci,
)
from .brownian import (
    BrownianPath,
    bridge_max_exceed_prob,
    bridge_max_from_uniforms,
    bridge_max_sample,
    new_path,
)
from .optimizer import (
    MAX_DEPTH,
    RunResult,
    compute_h_max,
    eta,
    run_oob,
    run_oob_on_path,
)
from .rng import MASK64, RandomSource, derive_seed, splitmix64

__version__ = "0.1.0"

__all__ = [
    "BrownianPath",
    "MASK64",
    "MAX_DEPTH",
    "MAX_GRID_DEPTH",
    "RandomSource",
    "RunResult",
    "VerificationReport",
    "Z95",
    "__version__",
    "baseline_separation",
    "bridge_max_exceed_prob",
    "bridge_max_from_uniforms",
    "bridge_max_sample",
    "compute_h_max",
    "conditional_max_samples",
    "derive_seed",
    "eta",
    "event_c_check",
    "lemma3_mc",
    "new_path",
    "pac_estimate",
    "run_oob",
    "run_oob_on_path",
    "splitmix64",
    "wilson_ci",
]
