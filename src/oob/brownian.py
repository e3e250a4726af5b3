"""Lazily sampled Brownian motion and the exact law of a bridge maximum.

A :class:`BrownianPath` materializes a standard Brownian motion W on [0, 1]
on demand. W(0) = 0 is known for free; the first query past the known range
draws a Gaussian increment; any interior query draws from the Brownian
bridge conditional law given its two stored neighbours. Conditioning is
exact, so the joint law of the revealed values does not depend on the
order of queries, and stored values never change once drawn.

The second half of the module implements the classical law of the maximum
of a Brownian bridge on [a, b] with endpoint values (wa, wb):

    P(sup_{[a,b]} W > x | W(a)=wa, W(b)=wb) = exp(-2 (x - wa)(x - wb) / (b - a))

valid for x >= max(wa, wb), both as an exceedance probability and as an
exact inverse-CDF sampler. Combining one such draw per cell of a partition
yields exact conditional samples of the global maximum given any finite
evaluation set, which is what the verification harnesses rely on.
"""

from __future__ import annotations

import math
from bisect import bisect_left

import numpy as np

from .rng import RandomSource

__all__ = [
    "BrownianPath",
    "bridge_max_exceed_prob",
    "bridge_max_from_uniforms",
    "bridge_max_sample",
    "new_path",
]


class BrownianPath:
    """One Brownian realization on [0, 1], revealed lazily and consistently.

    Holds the sorted set of evaluated times with their values, plus the
    :class:`RandomSource` that produced them. Re-querying a stored time
    returns the stored value and consumes no randomness. The source is
    exposed as ``rng`` so a harness can continue the same stream for
    auxiliary draws after a run (for instance conditional maximum
    sampling over the final evaluation set).
    """

    __slots__ = ("rng", "_times", "_values")

    def __init__(self, rng: RandomSource) -> None:
        self.rng = rng
        self._times: list[float] = [0.0]
        self._values: list[float] = [0.0]

    def __repr__(self) -> str:
        return f"BrownianPath(seed={self.seed}, value_count={self.value_count})"

    @property
    def seed(self) -> int:
        return self.rng.seed

    @property
    def value_count(self) -> int:
        """Number of stored (t, W(t)) pairs, including W(0) = 0."""
        return len(self._times)

    def evaluations(self) -> list[tuple[float, float]]:
        """All stored evaluations as (t, W(t)) pairs in increasing t."""
        return list(zip(self._times, self._values))

    def evaluate(self, t: float) -> float:
        """Return W(t), drawing it from the exact conditional law if new.

        A fresh time strictly between stored neighbours a < t < b with
        values wa, wb draws Gaussian with mean wa + (t-a)/(b-a)*(wb-wa)
        and variance (t-a)(b-t)/(b-a), the bridge law. A time beyond the
        largest stored point s draws Gaussian with mean W(s) and variance
        t - s. Exactly one Gaussian is consumed per fresh time, none for
        a repeat query.
        """
        t = float(t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        times, values = self._times, self._values
        i = bisect_left(times, t)
        if i == len(times):
            s = times[-1]
            mean = values[-1]
            var = t - s
        elif times[i] == t:
            return values[i]
        else:
            a, b = times[i - 1], times[i]
            wa, wb = values[i - 1], values[i]
            mean = wa + (t - a) / (b - a) * (wb - wa)
            var = (t - a) * (b - t) / (b - a)
        w = mean + math.sqrt(var) * self.rng.normal()
        times.insert(i, t)
        values.insert(i, w)
        return w

    def _store_fresh(self, points: list[tuple[float, float]]) -> None:
        """Store (t, W(t)) pairs drawn elsewhere from this path's stream.

        The path must hold only W(0) and the times must be new and in
        (0, 1]; they may come in any order. One sort leaves the path as
        :meth:`evaluate` would have, had it drawn the same values.
        """
        ordered = sorted(points)
        self._times += [t for t, _ in ordered]
        self._values += [w for _, w in ordered]


def new_path(seed: int) -> BrownianPath:
    """Fresh path holding only W(0) = 0, with its own seeded source."""
    return BrownianPath(RandomSource(seed))


def _check_interval(a: float, b: float) -> None:
    if not b > a:
        raise ValueError(f"need a < b, got a={a}, b={b}")


def bridge_max_exceed_prob(a: float, b: float, wa: float, wb: float, x: float) -> float:
    """P(sup of W over [a, b] exceeds x), given W(a)=wa and W(b)=wb.

    Returns exp(-2 (x - wa)(x - wb) / (b - a)). The closed form only holds
    for x at or above both endpoint values; below them the probability is
    not given by this expression, so such x is rejected.
    """
    _check_interval(a, b)
    if x < max(wa, wb):
        raise ValueError(
            f"x must be >= max(wa, wb) = {max(wa, wb)}, got {x}: "
            "the exceedance law is invalid below the endpoints"
        )
    return math.exp(-2.0 * (x - wa) * (x - wb) / (b - a))


def bridge_max_sample(rng: RandomSource, a: float, b: float, wa: float, wb: float) -> float:
    """Exact draw of sup of W over [a, b] given the endpoint values.

    Consumes exactly one (0, 1] uniform from ``rng`` and inverts it with
    :func:`bridge_max_from_uniforms`. The result is always >= max(wa, wb)
    and is distributed as the maximum of the bridge.
    """
    _check_interval(a, b)
    return float(bridge_max_from_uniforms(rng.uniform_open(), b - a, wa, wb))


def bridge_max_from_uniforms(
    u: np.ndarray, lengths: np.ndarray, left: np.ndarray, right: np.ndarray
) -> np.ndarray:
    """Invert the bridge-maximum exceedance law, elementwise over cells.

    ``left``, ``right``, ``lengths`` describe one cell per trailing-axis
    position (scalars broadcast); ``u`` holds exceedance levels in (0, 1]
    and may carry extra leading axes (one row per independent sample of
    every cell). With m = (left+right)/2 and d = (left-right)/2, the x
    whose exceedance probability equals u is

        x = m + sqrt(d**2 - lengths * ln(u) / 2),

    clamped to max(left, right) so a last-bit rounding never puts it below
    the endpoints. This is the only implementation of the inverse; tests
    check it against :func:`bridge_max_exceed_prob`.
    """
    m = 0.5 * (left + right)
    d = 0.5 * (left - right)
    x = m + np.sqrt(d * d - 0.5 * lengths * np.log(u))
    return np.maximum(x, np.maximum(left, right))
