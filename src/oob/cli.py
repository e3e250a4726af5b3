"""Command-line front end: single runs, epsilon sweeps, verification suites.

Flags are only parsed here; each value is checked by the library function
that uses it, except that the seed's range is checked here, by the rng's
own rule, so that a refusal names ``--seed``. Exit codes: 0 for success
(and for a verification that passed), 1 for a verification that ran fine
but failed its bound, 2 for usage errors. An unwritable ``--out`` is one
too, but it is opened only after the command's work is done, so that a
refused value leaves no file behind. Output is deterministic
byte-for-byte given identical flags; ``--seed`` defaults to 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterator

from .analysis import (
    VerificationReport,
    baseline_separation,
    event_c_check,
    lemma3_mc,
    pac_estimate,
)
from .optimizer import RunResult, compute_h_max, run_oob
from .rng import _check_u64, derive_seed

__all__ = ["main"]

_CSV_HEADER = ("epsilon", "seed", "n_evals", "m_hat", "t_hat", "h_max", "ln2_inv_eps")

DEFAULT_SWEEP_EPSILONS = (0.1, 0.05, 0.02, 0.01, 0.005, 0.002, 0.001)


def _run_sweep(epsilons: tuple[float, ...], trials: int, seed: int) -> Iterator[RunResult]:
    """Runs for every (epsilon, trial) pair, grouped by epsilon in given order.

    Trial j uses the derived seed ``derive_seed(seed, j)`` at every epsilon,
    so runs are paired across epsilon levels and reproducible one-by-one
    with ``run --epsilon E --seed <row seed>``. The arguments are checked
    before any draw; each run is made as the returned iterator reaches it.
    """
    if not epsilons:
        raise ValueError("epsilons must be non-empty")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for epsilon in epsilons:
        compute_h_max(epsilon)
    return (run_oob(epsilon, derive_seed(seed, j)) for epsilon in epsilons for j in range(trials))


def _row(result: RunResult) -> dict:
    """One run as the ``_CSV_HEADER`` fields, in that order."""
    return {
        "epsilon": result.epsilon,
        "seed": result.seed,
        "n_evals": result.n_evals,
        "m_hat": result.m_hat,
        "t_hat": result.t_hat,
        "h_max": result.h_max,
        "ln2_inv_eps": math.log(1.0 / result.epsilon) ** 2,
    }


def _field(value: float | int) -> str:
    # 17 significant digits round-trip any double exactly. No field can hold
    # a comma, a quote or a newline, so the CSV needs no quoting.
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _sweep(args: argparse.Namespace, seed: int) -> tuple[str, int]:
    rows = [_row(result) for result in _run_sweep(args.epsilons, args.trials, seed)]
    if args.format == "json":
        return _json(rows), 0
    lines = [_CSV_HEADER, *([_field(v) for v in row.values()] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines), 0


def _verdict(report: VerificationReport) -> tuple[str, int]:
    return _json(report.to_json_dict()), 0 if report.passed else 1


def _epsilon_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``oob`` parser, built once per process on first use.

    Each subcommand's ``handler(args, seed)`` returns ``(text, exit_code)``.
    The suite handlers name the suite functions as module globals, looked up
    at call time, so a wrapper installed on this module later still runs.
    """
    parser = argparse.ArgumentParser(
        prog="oob",
        description=(
            "Optimistic optimization of a lazily sampled Brownian motion, "
            "plus statistical verification suites."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_p = commands.add_parser("run", help="one optimizer run, emitted as JSON")
    run_p.add_argument("--epsilon", type=float, required=True)
    _add_common(run_p)
    run_p.set_defaults(handler=lambda args, seed: (_json(_row(run_oob(args.epsilon, seed))), 0))

    sweep_p = commands.add_parser("sweep", help="many runs per epsilon, CSV or JSON")
    sweep_p.add_argument(
        "--epsilons",
        type=_epsilon_list,
        default=DEFAULT_SWEEP_EPSILONS,
        help="comma-separated list (default %(default)s)",
    )
    sweep_p.add_argument("--trials", type=int, default=250)
    sweep_p.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_common(sweep_p)
    sweep_p.set_defaults(handler=_sweep)

    verify_p = commands.add_parser("verify", help="run one verification suite")
    suites = verify_p.add_subparsers(dest="suite", required=True)

    pac_p = suites.add_parser("pac", help="exact failure probability of the final answer")
    pac_p.add_argument("--epsilon", type=float, default=0.1)
    pac_p.add_argument("--trials", type=int, default=500)
    _add_common(pac_p)
    pac_p.set_defaults(
        handler=lambda args, seed: _verdict(pac_estimate(args.epsilon, args.trials, seed))
    )

    lemma3_p = suites.add_parser("lemma3", help="near-optimal count bound")
    lemma3_p.add_argument("--depth", type=int, default=6, help="grid depth h")
    lemma3_p.add_argument("--eta", type=float, default=0.1)
    lemma3_p.add_argument("--trials", type=int, default=10000)
    _add_common(lemma3_p)
    lemma3_p.set_defaults(
        handler=lambda args, seed: _verdict(lemma3_mc(args.depth, args.eta, args.trials, seed))
    )

    eventc_p = suites.add_parser("eventc", help="simultaneous bound violations")
    eventc_p.add_argument("--epsilon", type=float, default=0.5)
    eventc_p.add_argument("--depth", type=int, default=10)
    eventc_p.add_argument("--trials", type=int, default=100000)
    _add_common(eventc_p)
    eventc_p.set_defaults(
        handler=lambda args, seed: _verdict(
            event_c_check(args.epsilon, args.depth, args.trials, seed)
        )
    )

    baseline_p = suites.add_parser(
        "baseline", help="grid size vs optimizer cost at eps 0.05 and 0.01"
    )
    baseline_p.add_argument("--trials", type=int, default=101)
    _add_common(baseline_p)
    baseline_p.set_defaults(
        handler=lambda args, seed: _verdict(baseline_separation(trials=args.trials, seed=seed))
    )

    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output path (default: stdout)")
    sub.set_defaults(leaf=sub)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # reported by the subcommand, so its usage line is shown
        args.leaf.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        text, code = args.handler(args, _check_u64(args.seed, "--seed"))
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
    except (ValueError, OSError) as exc:
        # Usage errors: a refused value or seed, or an --out that cannot be written.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
