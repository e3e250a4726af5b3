"""Optimistic interval splitting to locate the maximum of a Brownian path.

The optimizer maintains a partition of [0, 1] into dyadic intervals. Each
interval carries an optimistic upper bound on the maximum of W over it:
the better endpoint value plus a confidence width eta(epsilon, length)
chosen so that, with high probability, every dyadic interval respects its
bound simultaneously. The loop repeatedly selects the interval with the
highest bound; if that interval's width term is already <= epsilon it
stops, otherwise it evaluates W at the interval midpoint and replaces the
interval with its two halves. The returned estimate is the best evaluated
point, with t = 0 (where W is 0 by definition) included as a free candidate.

Evaluation cost is self-limiting: no interval at depth >= h_max(epsilon)
is ever split, so a run performs at most 2**(h_max+1) evaluations.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction

from .brownian import BrownianPath, new_path

__all__ = [
    "MAX_DEPTH",
    "RunResult",
    "compute_h_max",
    "eta",
    "run_oob",
    "run_oob_on_path",
]

# Dyadic times k * 2**-h are exact doubles far beyond this depth; the cap
# exists to turn a runaway scan into a loud error instead of a hang.
MAX_DEPTH = 60


def eta(epsilon: float, delta: float) -> float:
    """Confidence width sqrt((5*delta/2) * ln(2/(epsilon*delta))).

    Defined only for positive arguments with epsilon*delta <= 1/2 (at
    equality the log argument is 4, still positive, so the boundary is
    allowed).
    """
    if epsilon <= 0.0 or delta <= 0.0:
        raise ValueError(f"epsilon and delta must be positive, got {epsilon}, {delta}")
    prod = epsilon * delta
    if prod > 0.5:
        raise ValueError(f"need epsilon*delta <= 1/2, got {prod}")
    return math.sqrt(2.5 * delta * math.log(2.0 / prod))


def compute_h_max(epsilon: float) -> int:
    """Smallest depth h with eta(epsilon, 2**-h) <= epsilon.

    Scans linearly from h = 0 rather than bisecting: eta is not assumed
    monotone in the depth. Requires 0 < epsilon < 1/2, which makes
    epsilon * 2**-h <= 1/2 valid at every depth.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must satisfy 0 < epsilon < 1/2, got {epsilon}")
    for h in range(MAX_DEPTH + 1):
        if eta(epsilon, 2.0 ** -h) <= epsilon:
            return h
    raise RuntimeError(f"no depth h <= {MAX_DEPTH} has eta(epsilon, 2**-h) <= epsilon")


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


def run_oob(epsilon: float, seed: int, *, debug_checks: bool = False) -> RunResult:
    """Run the optimizer on a fresh path built from ``seed``.

    Requires 0 < epsilon < 1/2. Identical (epsilon, seed) always produce
    bit-identical results: the only randomness is the path's own stream,
    consumed one Gaussian per evaluation in a deterministic order.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must satisfy 0 < epsilon < 1/2, got {epsilon}")
    return run_oob_on_path(epsilon, new_path(seed), debug_checks=debug_checks)


def run_oob_on_path(
    epsilon: float, path: BrownianPath, *, debug_checks: bool = False
) -> RunResult:
    """Same loop as :func:`run_oob` on a caller-provided fresh path.

    The path must hold only W(0) = 0; one that already holds points is
    refused with ``ValueError`` before any draw. Queries are t = 1 first,
    then midpoints of whichever intervals get split, each drawn straight
    from ``path.rng`` with one Gaussian: W(1) = 0 + z, and for the split
    of [a, b] at depth h the midpoint value is

        wm = wa + 0.5 * (wb - wa) + sd[h+1] * z,   sd[j] = sqrt(2**-(j+1)).

    For dyadic a < t < b, (t-a)/(b-a) is exactly 0.5 and the bridge
    variance exactly 2**-(h+2), so this repeats the arithmetic of
    :meth:`BrownianPath.evaluate` bit for bit; a fresh path yields exactly
    the :func:`run_oob` result for its seed. At the end the points are
    written back into the path, which then holds W(0) plus the trace, as if
    :meth:`BrownianPath.evaluate` had been called in trace order.

    The active intervals live in a heap of plain tuples (-B, h, k, wa, wb):
    the interval [k/2**h, (k+1)/2**h] with endpoint values wa, wb and
    bound B = max(wa, wb) + widths[h], where widths[h] = eta(epsilon, 2**-h)
    is computed once per run for every depth up to h_max. heapq pops the
    smallest tuple, i.e. the highest bound, ties broken toward smaller
    depth, then smaller index; (h, k) is unique, so wa and wb never decide
    and the whole trajectory is deterministic. The loop stops when the
    selected interval has widths[h] <= epsilon; other intervals are not
    consulted for stopping, and no interval deeper than h_max is ever
    selected. With ``debug_checks`` every iteration re-verifies the
    selection and the cached bounds against a full scan and checks that
    the intervals partition [0, 1].
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must satisfy 0 < epsilon < 1/2, got {epsilon}")
    if path.value_count != 1:
        raise ValueError(f"path must hold only W(0), got {path.value_count} points")
    h_max = compute_h_max(epsilon)
    widths = [eta(epsilon, 2.0 ** -h) for h in range(h_max + 1)]
    sd = [math.sqrt(2.0 ** -(j + 1)) for j in range(h_max + 1)]
    cap = 1 << (h_max + 1)
    normal = path.rng.normal

    w0 = 0.0  # W(0) = 0, never a draw
    w1 = 0.0 + normal()  # past the last point s = 0: mean W(0), variance 1 - 0
    trace = [(1.0, w1)]
    t_hat, m_hat = (1.0, w1) if w1 > w0 else (0.0, w0)
    heap = [(-((w1 if w1 > w0 else w0) + widths[0]), 0, 0, w0, w1)]

    for _ in range(cap):
        if debug_checks:
            _check_state(heap, widths)
        _, h, k, wa, wb = heap[0]
        if widths[h] <= epsilon:
            break
        h += 1
        k *= 2
        t = math.ldexp(k + 1, -h)  # midpoint of the selected interval
        wm = wa + 0.5 * (wb - wa) + sd[h] * normal()
        trace.append((t, wm))
        if wm > m_hat:
            t_hat, m_hat = t, wm
        width = widths[h]
        heapq.heapreplace(heap, (-((wm if wm > wa else wa) + width), h, k, wa, wm))
        heapq.heappush(heap, (-((wb if wb > wm else wm) + width), h, k + 1, wm, wb))
    else:
        raise RuntimeError(
            f"evaluation count exceeded the termination cap {cap}; "
            "this indicates a defect in the split or stop logic"
        )

    path._store_fresh(trace)
    return RunResult(
        epsilon=epsilon,
        t_hat=t_hat,
        m_hat=m_hat,
        n_evals=len(trace),
        h_max=h_max,
        trace=tuple(trace),
        seed=path.seed,
    )


def _check_state(
    heap: list[tuple[float, int, int, float, float]], widths: list[float]
) -> None:
    """Debug scan: heap front is the true argmax, every cached bound matches
    its endpoints, and the intervals tile [0, 1]."""
    front = min(entry[:3] for entry in heap)
    if heap[0][:3] != front:
        raise AssertionError(f"heap front {heap[0][:3]} is not the selection {front}")
    for neg_b, h, k, wa, wb in heap:
        if -neg_b != max(wa, wb) + widths[h]:
            raise AssertionError(f"stale bound at interval (h={h}, k={k})")
    seen = Fraction(0)
    for start, h, k in sorted((Fraction(k, 1 << h), h, k) for _, h, k, _, _ in heap):
        if start != seen:
            raise AssertionError(f"gap or overlap at interval (h={h}, k={k})")
        seen += Fraction(1, 1 << h)
    if seen != 1:
        raise AssertionError(f"interval set covers {seen}, expected 1")
