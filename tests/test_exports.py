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
