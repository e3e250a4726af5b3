"""Fixtures shared by several test modules."""

from __future__ import annotations

import pytest

import oob.rng


@pytest.fixture
def hash_calls(monkeypatch) -> list[int]:
    """Chunk lengths passed to the batch seed hash, recorded as it runs."""
    calls = []
    states = oob.rng._pcg64_states

    def record(seeds):
        calls.append(len(seeds))
        return states(seeds)

    monkeypatch.setattr(oob.rng, "_pcg64_states", record)
    return calls
