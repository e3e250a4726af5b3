"""Deterministic random streams for reproducible Monte Carlo work.

Every random quantity in this package is drawn from a :class:`RandomSource`,
a thin wrapper over numpy's PCG64 generator with a fixed draw vocabulary:
standard Gaussians and uniforms on the half-open interval (0, 1].

Reproducibility contract: a source built from a given seed always yields the
same draw sequence, and every operation in this package documents how many
draws it consumes and in what order. Experiments with many independent
trials derive one child seed per trial via :func:`derive_seed`, so trials
can run in any order, or in parallel, without changing results.
"""

from __future__ import annotations

from collections.abc import Callable
from itertools import chain, count

import numpy as np

__all__ = ["MASK64", "RandomSource", "derive_seed", "splitmix64"]

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Batch sizes of :meth:`RandomSource.normal_feed`: 128, 256, 512, ... A run
# that needs n draws takes about log2(n / 128) batches and draws fewer than
# 2n + 128 variates in all.
_FEED_FIRST_BATCH = 128


def splitmix64(value: int) -> int:
    """One SplitMix64 step: scramble an integer into a well-mixed 64-bit one.

    This is the standard SplitMix64 update (advance by the golden-ratio
    increment, then the murmur-style finalizer). It is bijective on the
    64-bit range, so distinct inputs below 2**64 never collide.
    """
    x = (value + _GAMMA) & MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & MASK64
    return x ^ (x >> 31)


def _check_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0 or seed > MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return int(seed)


def derive_seed(seed: int, index: int) -> int:
    """Child seed for trial ``index`` of an experiment rooted at ``seed``.

    Defined as ``seed XOR splitmix64(index)``. The scramble spreads child
    seeds across the 64-bit range even for consecutive indices, and the
    derivation is pure arithmetic, hence stable across processes and runs.
    """
    seed = _check_seed(seed)
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return (seed ^ splitmix64(index)) & MASK64


class RandomSource:
    """Seeded stream of standard Gaussian and (0, 1] uniform draws.

    Backed by numpy's PCG64 bit generator. Scalar methods consume one
    variate per call, in call order; the batch methods consume exactly
    ``size`` variates in a single numpy call, filled in row-major order.
    Gaussians come from numpy's ziggurat method; uniforms are 53-bit
    doubles mapped from [0, 1) to (0, 1] by ``u -> 1 - u`` so that
    ``log(u)`` is always finite.

    Two sources built from equal seeds produce identical sequences. Scalar
    and batch calls draw the same underlying variates from one stream: the
    values of ``normals(n)`` are those of n ``normal()`` calls, and either
    leaves the stream at the same place (likewise for uniforms). The
    optimizer relies on this through :meth:`normal_feed`.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int) -> None:
        self.seed = _check_seed(seed)
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def __repr__(self) -> str:
        return f"RandomSource(seed={self.seed})"

    def normal(self) -> float:
        """One standard Gaussian draw."""
        return float(self._gen.standard_normal())

    def normal_feed(self) -> Callable[[], float]:
        """Scalar Gaussians drawn in batches: ``draw = source.normal_feed()``.

        Successive ``draw()`` values are bit-identical to successive
        :meth:`normal` calls; they are taken from batches of 128, 256, 512,
        ... variates, so most calls are a C-level list step instead of a
        numpy call. The batches run ahead of what is used, so the source's
        stream is left at no defined place: a caller that needs the stream
        past the first n draws rebuilds the source from its seed and skips
        ``normals(n)``.
        """
        batches = (self.normals(_FEED_FIRST_BATCH << i).tolist() for i in count())
        return chain.from_iterable(batches).__next__

    def uniform_open(self) -> float:
        """One uniform draw on (0, 1]."""
        return 1.0 - float(self._gen.random())

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard Gaussian draws as a 1-d array."""
        return self._gen.standard_normal(count)

    def uniforms_open(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform draws on (0, 1] with the given shape."""
        return 1.0 - self._gen.random(shape)
