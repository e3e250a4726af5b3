"""Optimistic optimization of a lazily sampled Brownian motion on [0, 1].

The package has four layers: deterministic random streams (:mod:`oob.rng`),
exact lazy Brownian sampling and bridge-maximum laws (:mod:`oob.brownian`),
the interval-splitting optimizer (:mod:`oob.optimizer`), and Monte Carlo
verification harnesses with a CLI (:mod:`oob.analysis`, :mod:`oob.cli`).
"""

from . import analysis, brownian, optimizer, rng
from .analysis import *
from .brownian import *
from .optimizer import *
from .rng import *

__version__ = "0.1.0"

__all__ = sorted(
    ["__version__", *rng.__all__, *brownian.__all__, *optimizer.__all__, *analysis.__all__]
)
