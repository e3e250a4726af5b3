"""The package root exports exactly the public names of its modules."""

from __future__ import annotations

import ast
import pathlib

import oob
import oob.cli
from oob import analysis, brownian, optimizer, rng


def test_root_exports_match_modules():
    # A name deleted from a module must leave the root too, and a module
    # export must not be missing from it.
    modules = set().union(*(m.__all__ for m in (rng, brownian, optimizer, analysis)))
    assert set(oob.__all__) - {"__version__"} == modules
    assert all(hasattr(oob, name) for name in oob.__all__)


def test_every_export_is_used_by_another_module():
    # A name is public because the package itself uses it across modules;
    # one only the tests use is private. The version and the two documented
    # depth limits are exported for readers, not for other modules.
    imported = set()
    for path in pathlib.Path(oob.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                imported |= {(node.module, alias.name) for alias in node.names}
    owner = {
        name: module.__name__.rpartition(".")[2]
        for module in (rng, brownian, optimizer, analysis)
        for name in module.__all__
    }
    unused = [
        name
        for name in oob.__all__
        if name not in ("__version__", "MAX_DEPTH", "MAX_GRID_DEPTH")
        and (owner[name], name) not in imported
    ]
    assert unused == []
    assert oob.cli.__all__ == ["main"]


# The scalar reference sampler and the 64-bit mask serve only the tests and
# the benchmark tracer, and SplitMix64 and the Wilson interval only their own
# modules: they leave the package root but stay in their modules.
_UNEXPORTED = (
    "BrownianPath", "new_path", "bridge_max_sample", "run_oob_on_path", "MASK64",
    "splitmix64", "wilson_ci",
)


def test_reference_names_are_not_exported():
    for name in _UNEXPORTED:
        assert name not in oob.__all__
        assert not hasattr(oob, name)
    assert len(oob.__all__) == 16


def test_reference_names_stay_in_their_modules():
    for module, name in (
        (brownian, "BrownianPath"),
        (optimizer, "new_path"),
        (analysis, "new_path"),
        (analysis, "bridge_max_sample"),
        (analysis, "run_oob_on_path"),
        (rng, "_MASK64"),
        (rng, "_splitmix64"),
        (analysis, "_wilson_ci"),
        (oob.cli, "_run_sweep"),
        (oob.cli, "_CSV_HEADER"),
    ):
        assert name in vars(module), f"{module.__name__}.{name}"
    for module, name in (
        (rng, "MASK64"),
        (rng, "splitmix64"),
        (analysis, "wilson_ci"),
        (oob.cli, "run_sweep"),
        (oob.cli, "CSV_HEADER"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
