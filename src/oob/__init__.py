"""Optimistic optimization of a lazily sampled Brownian motion on [0, 1].

The package has four layers: deterministic random streams (:mod:`oob.rng`),
the exact bridge-maximum law (:mod:`oob.brownian`), the interval-splitting
optimizer :func:`run_oob` (:mod:`oob.optimizer`), and Monte Carlo
verification harnesses with a CLI (:mod:`oob.analysis`, :mod:`oob.cli`).
The lazy path ``brownian.BrownianPath`` and ``optimizer.run_oob_on_path``
are the tests' scalar reference and are not exported.
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
