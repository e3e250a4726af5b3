"""Deterministic random streams for reproducible Monte Carlo work.

Every random quantity in this package is drawn from a :class:`RandomSource`,
a thin wrapper over numpy's PCG64 generator with a fixed draw vocabulary:
standard Gaussians and uniforms on the half-open interval (0, 1].

Reproducibility contract: a source built from a given seed always yields the
same draw sequence, and every operation in this package documents how many
draws it consumes and in what order. Experiments with many independent
trials derive one child seed per trial via :func:`derive_seed`, so trials
can run in any order, or in parallel, without changing results.

:func:`sources` builds the sources of many seeds at once: it hashes the
seeds into PCG64 states in one numpy pass per chunk, with the arithmetic of
numpy's ``SeedSequence``, so each source it yields has exactly the stream of
``RandomSource(seed)`` at a fraction of the per-seed cost.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import chain, count, islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["MASK64", "RandomSource", "derive_seed", "sources", "splitmix64"]

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
    """Child seed for trial ``index`` of an experiment rooted at ``seed``.

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

    Two sources built from equal seeds produce identical sequences. Scalar
    and batch calls draw the same underlying variates from one stream: the
    values of ``normals(n)`` are those of n ``normal()`` calls, and either
    leaves the stream at the same place (likewise for uniforms). The
    optimizer relies on this through :meth:`normal_feed`.

    The constructor seeds PCG64 through numpy's ``SeedSequence(seed)``; it
    is the reference that :func:`sources`, the batch path for many seeds,
    reproduces.
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

    def normals(self, count: int) -> np.ndarray:
        """``count`` standard Gaussian draws as a 1-d array."""
        return self._gen.standard_normal(count)

    def uniforms_open(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform draws on (0, 1] with the given shape."""
        return 1.0 - self._gen.random(shape)


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx), for a
# pool of 4 32-bit words.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def _hash_constants(init: int, mult: int, steps: int) -> list[int]:
    """The running hash constant of ``steps`` hashmix calls, before and after each."""
    constants = [init]
    for _ in range(steps):
        constants.append(constants[-1] * mult & _MASK32)
    return constants


def _column(values: list[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# The hash constant runs through a fixed sequence whatever the seed, so each
# hashmix step's xor and multiplier are known up front: step i xors with
# constant i and multiplies by constant i + 1.
_A = _hash_constants(_INIT_A, _MULT_A, 16)
_B = _hash_constants(_INIT_B, _MULT_B, 8)
# Pool start: word i is hashmix(entropy word i), steps 0..3.
_POOL_XOR, _POOL_MULT = _column(_A[0:4]), _column(_A[1:5])
# Cross-mix: for each source word in order, every other word in order takes
# mix(word, hashmix(source word)), steps 4..15. The source word does not
# change while it is mixed into the other three, so its three hashmix steps
# run as one (3, n) operation.
_CROSS = [
    (
        src,
        [dst for dst in range(4) if dst != src],
        _column(_A[k : k + 3]),
        _column(_A[k + 1 : k + 4]),
    )
    for src, k in zip(range(4), range(4, 16, 3))
]
# Output: 8 words, word i hashed from pool word i % 4 with the B constants;
# read as 4 little-endian uint64, the PCG64 seeding request.
_OUT_XOR, _OUT_MULT = _column(_B[0:8]), _column(_B[1:9])
_OUT_WORDS = [0, 1, 2, 3, 0, 1, 2, 3]

# Seeds hashed per numpy pass of :func:`sources`: large enough that the fixed
# cost of a pass (about 0.1 ms) is spread thin, small enough that its arrays
# stay a few hundred kB at any seed count.
_HASH_CHUNK = 1024


def _hashmix(words: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    words = (words ^ xor) * mult
    return words ^ (words >> _XSHIFT)


def _pcg64_states(seeds: list[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, as rows.

    Seeds are validated 64-bit integers. A seed's entropy words are its low
    and high 32 bits: numpy drops the high word of a seed below 2**32, but
    it pads the 4-word pool with zeros either way, so the pool is the same.
    uint32 array arithmetic wraps modulo 2**32 as the reference does.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool = _hashmix(pool, _POOL_XOR, _POOL_MULT)
    for src, dst, xor, mult in _CROSS:
        mixed = pool[dst] * _MIX_MULT_L - _hashmix(pool[src], xor, mult) * _MIX_MULT_R
        pool[dst] = mixed ^ (mixed >> _XSHIFT)
    words = _hashmix(pool[_OUT_WORDS], _OUT_XOR, _OUT_MULT)
    return np.ascontiguousarray(words.T).view("<u8").astype(np.uint64)


class _HashedSeed(ISeedSequence):
    """A seed sequence whose one answer, PCG64's seeding request, is precomputed."""

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != len(self._state) or np.dtype(dtype) != self._state.dtype:
            raise ValueError("only the PCG64 seeding request is precomputed")
        return self._state


def sources(seeds: Iterable[int]) -> Iterator[RandomSource]:
    """One :class:`RandomSource` per seed, in order, built lazily.

    Each yielded source has exactly the stream of ``RandomSource(seed)``:
    its PCG64 state is numpy's ``SeedSequence(seed)`` output, computed for
    up to ``_HASH_CHUNK`` seeds at a time by one array pass instead of one
    ``SeedSequence`` per seed. Seeds are validated as the constructor
    validates them, a chunk at a time, before any source of the chunk is
    yielded.
    """
    seeds = iter(seeds)
    new = RandomSource.__new__
    while chunk := [_check_u64(seed) for seed in islice(seeds, _HASH_CHUNK)]:
        for seed, state in zip(chunk, _pcg64_states(chunk)):
            source = new(RandomSource)
            source.seed = seed
            source._gen = np.random.Generator(np.random.PCG64(_HashedSeed(state)))
            yield source
