"""The package root exports exactly the public names of its modules."""

from __future__ import annotations

import oob
from oob import analysis, brownian, optimizer, rng


def test_root_exports_match_modules():
    # A name deleted from a module must leave the root too, and a module
    # export must not be missing from it.
    modules = set().union(*(m.__all__ for m in (rng, brownian, optimizer, analysis)))
    assert set(oob.__all__) - {"__version__"} == modules
    assert all(hasattr(oob, name) for name in oob.__all__)


# The scalar reference sampler and the 64-bit mask serve only the tests and
# the benchmark tracer: they leave the package root but stay in their modules.
_UNEXPORTED = ("BrownianPath", "new_path", "bridge_max_sample", "run_oob_on_path", "MASK64")


def test_reference_names_are_not_exported():
    for name in _UNEXPORTED:
        assert name not in oob.__all__
        assert not hasattr(oob, name)
    assert len(oob.__all__) == 18


def test_reference_names_stay_in_their_modules():
    for module, name in (
        (brownian, "BrownianPath"),
        (optimizer, "new_path"),
        (analysis, "new_path"),
        (analysis, "bridge_max_sample"),
        (analysis, "run_oob_on_path"),
        (rng, "_MASK64"),
    ):
        assert name in vars(module), f"{module.__name__}.{name}"
    assert not hasattr(rng, "MASK64")
