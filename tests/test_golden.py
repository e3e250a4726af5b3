"""Golden output hashes: the bytes every pinned command writes.

Each case runs in-process and hashes exactly what it writes. A change that
keeps these digests leaves the random stream and every output byte of the
pinned commands untouched; a change that alters the stream on purpose must
re-pin them and say why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

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
        # 3 violations; at depth 8 the 4000 trials span 32 trial blocks.
        ["verify", "eventc", "--epsilon", "0.5", "--depth", "8", "--trials", "4000", "--seed", "1"],
        "2a8cf3faf52b862e82727d8893919aec8aff970ccf5f02f35e90be1ba70c2780",
        id="verify-eventc",
    ),
    pytest.param(
        # Pinned with the depth-h maximum reference (no finer walk); 3 blocks.
        ["verify", "lemma3", "--depth", "8", "--eta", "0.05", "--trials", "300", "--seed", "3"],
        "f9e877decab9c8b1b6d1627a1e21052fda72241e9f44c043ac7018f8e08dda25",
        id="verify-lemma3",
    ),
    pytest.param(
        ["sweep", "--epsilons", "0.1,0.01", "--trials", "4", "--seed", "3", "--format", "json"],
        "329a32ebb1f6cecf59b530d27d9de8744dfbbd62fe77704551f46f552dabd023",
        id="sweep-json",
    ),
    pytest.param(
        ["verify", "baseline", "--trials", "5", "--seed", "1"],
        "904521429816827adbee425b94bdedea1502971656e280f03bdea685dd1d83ba",
        id="verify-baseline",
    ),
]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv,digest", CLI_GOLDEN)
def test_cli_output_bytes(argv, digest, tmp_path):
    target = tmp_path / "out"
    assert main([*argv, "--out", str(target)]) == 0
    assert _sha256(target.read_bytes()) == digest


def test_baseline_separation_json(tmp_path):
    # The grids are dyadic grid trials, the walk lemma3 and eventc share;
    # test_analysis.py::TestBaseline::test_batched_oracle_matches_scalar_reference
    # pins them to a per-trial reference.
    report = baseline_separation(
        grid_sizes=(16, 64, 256, 1024, 4096), trials=3, oob_runs=5, seed=5
    )
    target = tmp_path / "baseline.json"
    target.write_text(json.dumps(report.to_json_dict(), sort_keys=True))
    assert _sha256(target.read_bytes()) == (
        "878f9b8bbcdd59b710616350bab9f01ca0f9b8b4831c1bf533cec765c1b35205"
    )
