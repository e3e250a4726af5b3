"""The benchmark tracer's hook points exist in the package.

``bench/layers.py`` wraps package attributes by name, looking each one up
in its owner's own namespace. A rename or deletion there would only break
the traced benchmark run; this test makes it fail the unit suite instead.
The benchmark files are imported read-only and nothing is patched.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


class _RecordingTracer:
    def __init__(self) -> None:
        self.hooks: list[tuple[object, str, str]] = []

    def patch(self, owner, attr: str, span: str, **kwargs) -> None:
        self.hooks.append((owner, attr, span))


def test_every_hooked_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.delitem(sys.modules, "layers", raising=False)
    import layers

    tracer = _RecordingTracer()
    layers.install(tracer)
    assert tracer.hooks
    missing = [
        f"{owner.__name__}.{attr} ({span})"
        for owner, attr, span in tracer.hooks
        if attr not in vars(owner)
    ]
    assert not missing, f"tracer hooks with no target: {missing}"
