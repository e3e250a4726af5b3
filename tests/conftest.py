"""Fixtures shared by the test modules."""

from __future__ import annotations

import pytest

from oob import RandomSource


@pytest.fixture
def draws(monkeypatch):
    """Names of the ``RandomSource`` draw methods called, in call order."""
    names = []
    for name in ("normal", "normals", "uniform_open", "uniforms_open"):
        original = getattr(RandomSource, name)
        monkeypatch.setattr(RandomSource, name, lambda *a, _f=original, _n=name:
                            names.append(_n) or _f(*a))
    return names
