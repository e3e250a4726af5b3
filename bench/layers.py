"""Where the tracer hooks into the package, and the per-layer metrics it yields.

Span names are ``<layer>.<operation>``; the layer is one of the package's
modules. Every hook wraps a name where callers look it up at call time, so
the package source stays unchanged:

* module functions in the namespace of the calling module
  (``analysis.bridge_max_sample``, not ``brownian.bridge_max_sample``);
* methods on the class (``RandomSource.__init__`` covers every
  construction, whichever module builds the source);
* the benchmark's own entry calls (``optimizer.run_oob``, ``cli.main``,
  ``analysis.baseline_separation``).
"""

from __future__ import annotations

import oob
from oob import analysis, brownian, cli, optimizer, rng

MODULES = (oob, rng, brownian, optimizer, analysis, cli)
CLASSES = (rng.RandomSource, brownian.BrownianPath)


def _size(result) -> int:
    return result.size


def _n_evals(result) -> int:
    return result.n_evals


def _value_count(args) -> int:
    return args[0].value_count


def install(tracer) -> None:
    """Wrap every hooked attribute; ``tracer.restore()`` undoes it."""
    source = rng.RandomSource
    tracer.patch(source, "__init__", "rng.construct")
    tracer.patch(source, "normal", "rng.scalar")
    tracer.patch(source, "uniform_open", "rng.scalar")
    tracer.patch(source, "normals", "rng.batch", count=_size)
    tracer.patch(source, "uniforms_open", "rng.batch", count=_size)
    tracer.patch(brownian.BrownianPath, "evaluate", "brownian.evaluate", delta=_value_count)
    tracer.patch(optimizer, "new_path", "brownian.new_path")
    tracer.patch(analysis, "new_path", "brownian.new_path")
    tracer.patch(analysis, "bridge_max_from_uniforms", "brownian.bridge_batch", count=_size)
    tracer.patch(analysis, "bridge_max_sample", "brownian.bridge_scalar")
    tracer.patch(optimizer, "run_oob", "optimizer.run", count=_n_evals)
    tracer.patch(analysis, "run_oob", "optimizer.run", count=_n_evals)
    tracer.patch(analysis, "run_oob_on_path", "optimizer.run", count=_n_evals)
    tracer.patch(cli, "event_c_check", "analysis.eventc", count=lambda r: r.trials)
    tracer.patch(cli, "lemma3_mc", "analysis.lemma3", count=lambda r: r.trials)
    tracer.patch(
        analysis,
        "baseline_separation",
        "analysis.baseline",
        count=lambda r: r.metadata["trials_per_grid"],
    )
    tracer.patch(cli, "main", "cli.main")


def snapshot() -> list[tuple[object, dict]]:
    """The namespaces the tracer may touch, copied for an identity check."""
    return [(owner, dict(vars(owner))) for owner in MODULES + CLASSES]


def changed_names(before: list[tuple[object, dict]]) -> list[str]:
    """Names whose object differs from ``before`` (empty when all restored)."""
    changed = []
    for owner, names in before:
        now = vars(owner)
        for key in names.keys() | now.keys():
            if key not in names or key not in now or names[key] is not now[key]:
                changed.append(f"{owner.__name__}.{key}")
    return changed


_ZERO = {"calls": 0, "total_ns": 0, "self_ns": 0, "min_self_ns": 0, "count": 0}


def _ratio(a: float, b: float) -> float:
    # A layer that does not run on a workload reports 0, not a division error.
    return a / b if b else 0.0


def per_layer(summary: dict, loop: dict, evals_per_run: float, overhead_ms: float) -> dict:
    """Per-layer metrics of one traced loop, as name -> (value, unit).

    Counts are per workload call; times are per unit of the layer's work;
    shares are self time over the traced loop's wall time.
    """
    calls, wall = loop["calls"], loop["wall_ns"]

    def row(name: str) -> dict:
        return summary.get(name, _ZERO)

    def own_ns(layer: str) -> int:
        return sum(r["self_ns"] for n, r in summary.items() if n.split(".")[0] == layer)

    def share(layer: str) -> float:
        return own_ns(layer) / wall

    construct, scalar, batch = row("rng.construct"), row("rng.scalar"), row("rng.batch")
    evaluate, cells, bridge = (
        row("brownian.evaluate"), row("brownian.bridge_batch"), row("brownian.bridge_scalar")
    )
    run = row("optimizer.run")
    suites = [row(n) for n in ("analysis.eventc", "analysis.lemma3", "analysis.baseline")]
    suite_trials = sum(r["count"] for r in suites)
    main = row("cli.main")
    roots = loop["root_ns"]
    return {
        "rng.construct.calls": (construct["calls"] / calls, "1/call"),
        "rng.construct.us": (_ratio(construct["total_ns"] / 1e3, construct["calls"]), "us"),
        "rng.scalar.calls": (scalar["calls"] / calls, "1/call"),
        "rng.scalar.us": (_ratio(scalar["total_ns"] / 1e3, scalar["calls"]), "us"),
        "rng.batch.variates": (batch["count"] / calls, "1/call"),
        "rng.batch.ns_per_variate": (_ratio(batch["total_ns"], batch["count"]), "ns"),
        "rng.self_share": (share("rng"), "ratio"),
        "brownian.evaluate.calls": (evaluate["calls"] / calls, "1/call"),
        "brownian.evaluate.fresh_ratio": (_ratio(evaluate["count"], evaluate["calls"]), "ratio"),
        "brownian.evaluate.self_us": (_ratio(evaluate["self_ns"] / 1e3, evaluate["calls"]), "us"),
        "brownian.bridge_batch.cells": (cells["count"] / calls, "1/call"),
        "brownian.bridge_batch.ns_per_cell": (_ratio(cells["self_ns"], cells["count"]), "ns"),
        "brownian.bridge_scalar.calls": (bridge["calls"] / calls, "1/call"),
        "brownian.bridge_scalar.self_us": (_ratio(bridge["self_ns"] / 1e3, bridge["calls"]), "us"),
        "brownian.self_share": (share("brownian"), "ratio"),
        "optimizer.runs": (run["calls"] / calls, "1/call"),
        "optimizer.evals_per_run": (evals_per_run, "count"),
        "optimizer.split.self_us": (
            _ratio(run["self_ns"] / 1e3, run["count"] - run["calls"]), "us"
        ),
        "optimizer.self_share": (share("optimizer"), "ratio"),
        "analysis.trials": (suite_trials / calls, "1/call"),
        "analysis.self_us_per_trial": (_ratio(own_ns("analysis") / 1e3, suite_trials), "us"),
        "analysis.verdict_pass_ratio": (_ratio(loop["passed"], loop["verdicts"]), "ratio"),
        "analysis.self_share": (share("analysis"), "ratio"),
        "cli.main.calls": (main["calls"] / calls, "1/call"),
        "cli.main.self_us": (_ratio(main["self_ns"] / 1e3, main["calls"]), "us"),
        "cli.self_share": (share("cli"), "ratio"),
        "bench.self_share": ((wall - roots) / wall, "ratio"),
        "trace.overhead_ms": (overhead_ms, "ms"),
    }
