"""The exact law of a Brownian bridge maximum, and the tests' scalar path.

The module's public content is the classical law of the maximum of a
Brownian bridge on [a, b] with endpoint values (wa, wb):

    P(sup_{[a,b]} W > x | W(a)=wa, W(b)=wb) = exp(-2 (x - wa)(x - wb) / (b - a))

valid for x >= max(wa, wb), both as an exceedance probability and as an
exact batched inverse-CDF sampler. Given any finite evaluation set, the
cells between consecutive points are independent bridges: the product of
their non-exceedance probabilities is the exact conditional law of the
global maximum, which the pac check uses, and one draw per cell is an
exact sample of it, which the grid suites use.

The lazily sampled :class:`BrownianPath`, with :func:`new_path` and the
scalar :func:`bridge_max_sample`, is not exported: it is the tests' scalar
reference. W(0) = 0 is known for free; the first query past the known
range draws a Gaussian increment; any interior query draws from the bridge
law given its two stored neighbours. Conditioning is exact, so the joint
law of the revealed values does not depend on the order of queries.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Iterable
from operator import itemgetter

import numpy as np

from .rng import RandomSource

__all__ = ["bridge_max_exceed_prob", "bridge_max_from_uniforms"]


class BrownianPath:
    """One Brownian realization on [0, 1], revealed lazily and consistently.

    Holds the sorted set of evaluated times with their values, plus the
    :class:`RandomSource` that produced them. Re-querying a stored time
    returns the stored value and consumes no randomness. The source is
    exposed as ``rng`` so a caller can continue the same stream for
    auxiliary draws after a run.
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

    def _store_fresh(self, points: Iterable[tuple[float, float]]) -> None:
        """Store (t, W(t)) pairs drawn elsewhere from this path's stream.

        The path must hold only W(0) and the times must be new and in
        (0, 1]; they may come in any order. One sort by time leaves the path
        as :meth:`evaluate` would have, had it drawn the same values.
        """
        ordered = sorted(points, key=itemgetter(0))
        self._times += [t for t, _ in ordered]
        self._values += [w for _, w in ordered]


def new_path(seed: int) -> BrownianPath:
    """Fresh path holding only W(0) = 0, with its own seeded source."""
    return BrownianPath(RandomSource(seed))


def bridge_max_exceed_prob(
    a: np.ndarray, b: np.ndarray, wa: np.ndarray, wb: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """P(sup of W over [a, b] exceeds x), given W(a)=wa and W(b)=wb, elementwise.

    Returns exp(-2 (x - wa)(x - wb) / (b - a)), broadcasting over cells like
    :func:`bridge_max_from_uniforms`. Every cell needs a < b and finite
    endpoint values, and the closed form only holds for x at or above both
    endpoint values, so x below them is rejected; each check is written so
    that a NaN fails it.
    """
    if not np.all((b > a) & np.isfinite(wa) & np.isfinite(wb)):
        raise ValueError("every cell needs a < b and finite endpoint values")
    if not np.all((x >= wa) & (x >= wb)):
        raise ValueError(
            "x must be >= max(wa, wb) in every cell: "
            "the exceedance law is invalid below the endpoints"
        )
    return np.exp(-2.0 * (x - wa) * (x - wb) / (b - a))


def bridge_max_sample(rng: RandomSource, a: float, b: float, wa: float, wb: float) -> float:
    """Exact draw of sup of W over [a, b] given the endpoint values.

    Consumes exactly one (0, 1] uniform from ``rng`` and inverts it with
    :func:`bridge_max_from_uniforms`. The result is always >= max(wa, wb)
    and is distributed as the maximum of the bridge.
    """
    if not b > a:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    return float(bridge_max_from_uniforms(rng.uniform_open(), b - a, wa, wb))


def bridge_max_from_uniforms(
    u: np.ndarray,
    lengths: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
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

    Every step of ``m + sqrt(d*d - 0.5*lengths*log(u))`` runs in place,
    with the same operands in the same order, so the bits do not depend on
    the buffers. The result goes to ``out`` when given (float64, of the
    broadcast shape of all four inputs) and is returned; otherwise to a new
    array, or a numpy scalar when every input is a scalar. ``scratch``, if
    given, is a float64 buffer of the broadcast shape of ``left`` and
    ``right`` that the call may overwrite. Neither may overlap an input,
    except that ``out`` may be ``u``, which only the first step reads; no
    other input is written.
    """
    x = out
    if x is None:
        x = np.empty(np.broadcast_shapes(*map(np.shape, (u, lengths, left, right))))
    if scratch is None:
        scratch = np.empty(np.broadcast_shapes(np.shape(left), np.shape(right)))
    np.multiply(0.5 * lengths, np.log(u, out=x), out=x)
    d = np.multiply(0.5, np.subtract(left, right, out=scratch), out=scratch)
    np.subtract(np.multiply(d, d, out=scratch), x, out=x)
    np.sqrt(x, out=x)
    m = np.multiply(0.5, np.add(left, right, out=scratch), out=scratch)
    np.add(m, x, out=x)
    np.maximum(x, np.maximum(left, right, out=scratch), out=x)
    return x if out is not None or x.ndim else x[()]
