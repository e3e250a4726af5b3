"""Golden output hashes: the bytes every pinned command writes.

Each case runs in-process and hashes exactly what it writes; one more test
recomputes them all in a child process with numpy's run-time SIMD dispatch
switched off. A change that keeps these digests leaves the random stream
and every output byte of the pinned commands untouched; a change that
alters the stream on purpose must re-pin them and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

import oob.analysis
from oob import baseline_separation
from oob.cli import main

CLI_GOLDEN = [
    pytest.param(
        ["run", "--epsilon", "0.01", "--seed", "7"],
        "ae865d693a86fb0d9427328b59a3a09f0b8f1affaf405a30000889823cb44b11",
        id="run",
    ),
    pytest.param(
        ["sweep", "--epsilons", "0.1,0.01,0.001", "--trials", "5", "--seed", "3"],
        "085754969f33efa66145170e21db1bf715369fa06bb28f8a1592467b34ba2a8d",
        id="sweep-csv",
    ),
    pytest.param(
        # Pinned on the runs' exact failure probabilities, so every trace
        # value reaches the bytes; 40 runs let a sound optimizer pass.
        ["verify", "pac", "--epsilon", "0.1", "--trials", "40", "--seed", "1"],
        "217b025d9d667d43bbdbeff0a368b271fa8c6b8c3cd62c4e9e225ac9d5320164",
        id="verify-pac",
    ),
    pytest.param(
        # 2 violations, so the verdict rests on drawn counts, not on zero.
        ["verify", "eventc", "--epsilon", "0.5", "--depth", "8", "--trials", "4000", "--seed", "1"],
        "ae0a352f35c1f9366e35148858622ab8f66dfaec70c3d83bfbcd3f3b7ab9525b",
        id="verify-eventc",
    ),
    pytest.param(
        # Pinned with the depth-h maximum reference (no finer walk).
        ["verify", "lemma3", "--depth", "8", "--eta", "0.05", "--trials", "300", "--seed", "3"],
        "ac51089fd12eeef23f4bdc8bd00d8ff1c24869bee0d9f85bccca5bde7889e177",
        id="verify-lemma3",
    ),
    pytest.param(
        ["sweep", "--epsilons", "0.1,0.01", "--trials", "4", "--seed", "3", "--format", "json"],
        "329a32ebb1f6cecf59b530d27d9de8744dfbbd62fe77704551f46f552dabd023",
        id="sweep-json",
    ),
    pytest.param(
        ["verify", "baseline", "--trials", "5", "--seed", "1"],
        "fa4b55e6760765f6cf3f549cb26b4914eece916c00a6f7dea12b9ba0c02ae1e8",
        id="verify-baseline",
    ),
]


BASELINE_GOLDEN = "f639d8591e2cc34e5a3102a310c1777eb2f15ca686f1bd03deb6492dc61da5c9"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _cli_digest(argv: list[str], directory: Path) -> str:
    target = directory / "out"
    assert main([*argv, "--out", str(target)]) == 0
    return _sha256(target.read_bytes())


def _baseline_digest() -> str:
    # A shorter ladder than the suite's own; patched here so the child
    # process of test_digests_hold_without_simd_dispatch runs the same.
    with patch.object(oob.analysis, "_GRID_SIZES", (16, 64, 256, 1024, 4096)):
        report = baseline_separation(trials=3, oob_runs=5, seed=5)
    return _sha256(json.dumps(report.to_json_dict(), sort_keys=True).encode())


def digests(directory: Path) -> list[str]:
    """Every pinned digest, recomputed: CLI_GOLDEN's in order, then the baseline's."""
    return [_cli_digest(p.values[0], directory) for p in CLI_GOLDEN] + [_baseline_digest()]


@pytest.mark.parametrize("argv,digest", CLI_GOLDEN)
def test_cli_output_bytes(argv, digest, tmp_path):
    assert _cli_digest(argv, tmp_path) == digest


def test_baseline_separation_json():
    # The grids are dyadic grid trials, the walk lemma3 and eventc share;
    # test_analysis.py::TestBaseline::test_batched_oracle_matches_scalar_reference
    # pins them to a per-trial reference.
    assert _baseline_digest() == BASELINE_GOLDEN


_CHILD = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
sys.path.insert(0, sys.argv[1])
import test_golden
enabled = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
print(json.dumps({"enabled": enabled, "digests": test_golden.digests(Path(sys.argv[2]))}))
"""


def test_digests_hold_without_simd_dispatch(tmp_path):
    # numpy picks SIMD kernels at run time from the CPU. A child with every
    # dispatch target this CPU enables switched off must write the same
    # bytes; with no such target the child runs the same code as here.
    enabled = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(enabled))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, str(Path(__file__).parent), str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0 and done.stderr == "", done.stderr
    child = json.loads(done.stdout)
    assert child["enabled"] == []
    assert child["digests"] == [p.values[1] for p in CLI_GOLDEN] + [BASELINE_GOLDEN]
