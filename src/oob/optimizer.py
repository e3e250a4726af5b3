"""Optimistic interval splitting to locate the maximum of a Brownian path.

The optimizer maintains a partition of [0, 1] into dyadic intervals. Each
interval carries an optimistic upper bound on the maximum of W over it:
the better endpoint value plus a confidence width eta(epsilon, length)
chosen so that, with high probability, every dyadic interval respects its
bound simultaneously. The loop repeatedly selects the interval with the
highest bound; if that interval's width term is already <= epsilon it
stops, otherwise it evaluates W at the interval midpoint and replaces the
interval with its two children. The returned estimate is the best evaluated
point, with t = 0 (where W is 0 by definition) included as a free candidate.

Evaluation cost is self-limiting: no interval at depth >= h_max(epsilon)
is ever split, so a run performs at most 2**(h_max+1) evaluations.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from dataclasses import dataclass

from .brownian import BrownianPath
# Kept only as the benchmark tracer's hook target until the next benchmark change retires it.
from .brownian import new_path
from .rng import RandomSource

__all__ = [
    "MAX_DEPTH",
    "RunResult",
    "compute_h_max",
    "eta",
    "run_oob",
]

# Deepest cutoff h_max a run may have. Every dyadic time k * 2**-h with
# h <= 53 is an exact double (k < 2**53 fits the 53-bit significand), so
# no two midpoints of a run round to one time; at depth 54 they can.
MAX_DEPTH = 53


def eta(epsilon: float, delta: float) -> float:
    """Confidence width sqrt((5*delta/2) * ln(2/(epsilon*delta))).

    Defined only for positive arguments with epsilon*delta <= 1/2 (at
    equality the log argument is 4, still positive, so the boundary is
    allowed) and not underflowing to 0, where the log has no value.
    """
    if epsilon <= 0.0 or delta <= 0.0:
        raise ValueError(f"epsilon and delta must be positive, got {epsilon}, {delta}")
    prod = epsilon * delta
    if not 0.0 < prod <= 0.5:
        raise ValueError(f"need 0 < epsilon*delta <= 1/2, got {prod}")
    return math.sqrt(2.5 * delta * math.log(2.0 / prod))


def compute_h_max(epsilon: float) -> int:
    """Smallest depth h with eta(epsilon, 2**-h) <= epsilon.

    Scans linearly from h = 0 rather than bisecting: eta is not assumed
    monotone in the depth. Requires 0 < epsilon < 1/2, which makes
    epsilon * 2**-h <= 1/2 valid at every depth, and epsilon >= about
    1.217e-7, the smallest epsilon that some depth h <= ``MAX_DEPTH``
    reaches. Any other epsilon raises ``ValueError``.
    """
    return len(_widths(epsilon)) - 1


def _widths(epsilon: float) -> list[float]:
    """eta(epsilon, 2**-h) for h = 0..h_max, the scan behind :func:`compute_h_max`."""
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must satisfy 0 < epsilon < 1/2, got {epsilon}")
    widths = []
    for h in range(MAX_DEPTH + 1):
        widths.append(eta(epsilon, 2.0 ** -h))
        if widths[h] <= epsilon:
            return widths
    raise ValueError(
        f"epsilon {epsilon} is too small: no depth h <= {MAX_DEPTH} has "
        "eta(epsilon, 2**-h) <= epsilon (the smallest is about 1.217e-7)"
    )


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimizer run.

    ``trace`` lists every W evaluation as (t, W(t)) in evaluation order,
    starting with t = 1; ``n_evals`` is its length. ``t_hat`` maximizes W
    over the evaluated points together with the free candidate t = 0, so
    ``m_hat >= 0`` always. ``h_max`` is the run's depth cutoff
    :func:`compute_h_max` of ``epsilon``.
    """

    epsilon: float
    t_hat: float
    m_hat: float
    n_evals: int
    h_max: int
    trace: tuple[tuple[float, float], ...]
    seed: int


def run_oob(epsilon: float, seed: int) -> RunResult:
    """Run the optimizer on a fresh Brownian path built from ``seed``.

    Requires an epsilon that :func:`compute_h_max` accepts, else
    ``ValueError`` before any draw. Identical (epsilon, seed) always
    produce bit-identical results: the only randomness is
    ``RandomSource(seed)``, consumed one Gaussian per evaluation in a
    deterministic order. Tests check the result against the scalar
    reference :func:`run_oob_on_path` on a fresh path of the same seed.
    """
    source = RandomSource(seed)
    return _search(epsilon, source.seed, source.normal_feed())


def run_oob_on_path(epsilon: float, path: BrownianPath) -> RunResult:
    """Same loop as :func:`run_oob` on a caller-provided fresh path.

    Not exported: the tests' scalar reference for :func:`run_oob`'s batched
    draws. The path must hold only W(0) = 0, one that already holds points
    is refused with ``ValueError`` before any draw, and the loop takes one
    ``path.rng.normal()`` per evaluation, so a fresh path yields exactly
    the :func:`run_oob` result for its seed and its stream is left one
    Gaussian per evaluation further on. The points are written back into
    the path, which then holds W(0) plus the trace, as if
    :meth:`BrownianPath.evaluate` had been called in trace order.
    """
    if path.value_count != 1:
        raise ValueError(f"path must hold only W(0), got {path.value_count} points")
    result = _search(epsilon, path.seed, path.rng.normal)
    path._store_fresh(result.trace)
    return result


def _search(epsilon: float, seed: int, draw: Callable[[], float]) -> RunResult:
    """The splitting loop on standard Gaussians from ``draw``, one per evaluation.

    ``seed`` is only recorded in the result. Queries are t = 1 first, then
    midpoints of whichever intervals get split. W(1) = 0 + z. Given W(a) = wa
    and W(b) = wb, the midpoint of a depth-h interval [a, b] is Gaussian with
    mean (wa+wb)/2 and variance 2**-(h+2), the bridge law, drawn as

        wm = wa + 0.5 * (wb - wa) + sd[h+1] * z,   sd[j] = sqrt(2**-(j+1)).

    ``BrownianPath.evaluate``, the tests' scalar reference, repeats this
    arithmetic bit for bit.

    The selectable intervals live in a heap of plain tuples (-B, h, k, wa, wb):
    the interval [k/2**h, (k+1)/2**h] with endpoint values wa, wb and
    bound B = max(wa, wb) + widths[h], where widths[h] = eta(epsilon, 2**-h)
    is computed once per run for every depth up to h_max. heapq pops the
    smallest tuple, i.e. the highest bound, ties broken toward smaller
    depth, then smaller index; (h, k) is unique, so wa and wb never decide
    and the whole trajectory is deterministic. The loop stops when the
    selected interval has widths[h] <= epsilon; other intervals are not
    consulted for stopping, and no interval deeper than h_max is ever
    selected.

    The heap holds only intervals with B >= m_hat + widths[h_max], the
    floor under the running best value. Proof that the rest can never be
    selected: the interval with endpoint t_hat has depth <= h_max, so its
    bound is >= m_hat + widths[h_max] (widths fall with depth), and m_hat
    never falls. So each split pushes 0, 1 or 2 of its children, the
    selections are those of the full partition, and the run stops on a
    bound of exactly m_hat + widths[h_max].
    """
    widths = _widths(epsilon)
    h_max = len(widths) - 1
    floor = widths[h_max]
    sd = [math.sqrt(2.0 ** -(j + 1)) for j in range(h_max + 1)]
    cap = 1 << (h_max + 1)

    w0 = 0.0  # W(0) = 0, never a draw
    w1 = 0.0 + draw()  # past the last point s = 0: mean W(0), variance 1 - 0
    trace = [(1.0, w1)]
    t_hat, m_hat = (1.0, w1) if w1 > w0 else (0.0, w0)
    cut = -(m_hat + floor)  # heap keys above it are never selected
    heap = [(-(m_hat + widths[0]), 0, 0, w0, w1)]

    for _ in range(cap):
        _, h, k, wa, wb = heap[0]
        if widths[h] <= epsilon:
            break
        h += 1
        k *= 2
        t = math.ldexp(k + 1, -h)  # midpoint of the selected interval
        wm = wa + 0.5 * (wb - wa) + sd[h] * draw()
        trace.append((t, wm))
        if wm > m_hat:
            t_hat, m_hat = t, wm
            cut = -(wm + floor)
        width = widths[h]
        kl = -((wm if wm > wa else wa) + width)
        kr = -((wb if wb > wm else wm) + width)
        if kl <= cut:
            heapq.heapreplace(heap, (kl, h, k, wa, wm))
            if kr <= cut:
                heapq.heappush(heap, (kr, h, k + 1, wm, wb))
        elif kr <= cut:
            heapq.heapreplace(heap, (kr, h, k + 1, wm, wb))
        else:
            heapq.heappop(heap)
    else:
        raise RuntimeError(
            f"evaluation count exceeded the termination cap {cap}; "
            "this indicates a defect in the split or stop logic"
        )
    return RunResult(
        epsilon=epsilon,
        t_hat=t_hat,
        m_hat=m_hat,
        n_evals=len(trace),
        h_max=h_max,
        trace=tuple(trace),
        seed=seed,
    )
