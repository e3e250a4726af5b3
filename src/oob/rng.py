"""Deterministic random streams for reproducible Monte Carlo work.

Every random quantity in this package is drawn from a :class:`RandomSource`,
a thin wrapper over numpy's PCG64 generator with a fixed draw vocabulary:
standard Gaussians and uniforms on the half-open interval (0, 1].

Reproducibility contract: a source built from a given seed always yields the
same draw sequence, and every operation in this package documents how many
draws it consumes and in what order. Experiments derive their child seeds
from one root seed via :func:`derive_seed`: one per optimizer run, and one
per random stream of a grid suite.
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


def _check_u64(value: int, name: str = "seed") -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 0 or value > MASK64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer, got {value}")
    return int(value)


def derive_seed(seed: int, index: int) -> int:
    """Child seed ``index`` of an experiment rooted at ``seed``.

    Defined as ``seed XOR splitmix64(index)``. The scramble spreads child
    seeds across the 64-bit range even for consecutive indices, and the
    derivation is pure arithmetic, hence stable across processes and runs.
    Both arguments must be integers in [0, 2**64 - 1]; anything else, a
    bool included, raises ValueError.
    """
    return _check_u64(seed) ^ splitmix64(_check_u64(index, "index"))


class RandomSource:
    """Seeded stream of standard Gaussian and (0, 1] uniform draws.

    Backed by numpy's PCG64 bit generator. Scalar methods consume one
    variate per call, in call order; the batch methods consume exactly
    ``size`` variates in a single numpy call, filled in row-major order.
    Gaussians come from numpy's ziggurat method; uniforms are 53-bit
    doubles mapped from [0, 1) to (0, 1] by ``u -> 1 - u`` so that
    ``log(u)`` is always finite.

    Two instances built from equal seeds produce identical sequences. Scalar
    and batch calls draw the same underlying variates from one stream: the
    values of ``normals(n)`` are those of n ``normal()`` calls, and either
    leaves the stream at the same place (likewise for uniforms). The
    optimizer relies on this through :meth:`normal_feed`, and the grid
    suites through their blocks: a block of rows draws the same values as
    those rows drawn one at a time.

    The batch methods take an optional ``out=`` buffer, a C-contiguous
    float64 array of the requested shape: they then draw into it and return
    it, with the values and the stream position of the allocating call.

    One thread draws from a source at a time: two threads drawing at once
    would take the variates in an order set by the scheduler. The grid
    walk draws a Gaussian block on a worker thread only while its caller
    draws from other sources, and waits for that block before it draws
    again (see ``analysis._grid_blocks``).

    The constructor seeds PCG64 through numpy's ``SeedSequence(seed)``.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int) -> None:
        self.seed = _check_u64(seed)
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
        stream is left at no defined place; no caller draws from the source
        after its feed.
        """
        batches = (self.normals(_FEED_FIRST_BATCH << i).tolist() for i in count())
        return chain.from_iterable(batches).__next__

    def uniform_open(self) -> float:
        """One uniform draw on (0, 1]."""
        return 1.0 - float(self._gen.random())

    def normals(
        self, shape: int | tuple[int, ...], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Standard Gaussian draws with the given shape, in ``out`` if given."""
        return self._gen.standard_normal(shape, out=out)

    def uniforms_open(
        self, shape: int | tuple[int, ...], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Uniform draws on (0, 1] with the given shape, in ``out`` if given."""
        u = self._gen.random(shape, out=out)
        return np.subtract(1.0, u, out=u)

