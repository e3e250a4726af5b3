"""Command-line interface: schemas, determinism, exit codes."""

from __future__ import annotations

import ast
import json
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import oob.analysis
import oob.cli
from oob import RandomSource, derive_seed, run_oob
from oob.analysis import MAX_GRID_DEPTH
from oob.cli import _CSV_HEADER as CSV_HEADER
from oob.cli import _run_sweep as run_sweep
from oob.cli import build_parser, main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def is_one_error_line(err):
    return err.startswith("oob: error: ") and err.count("\n") == 1


# Every command with small counts, each but run ending in its --trials flag,
# and the flags that take an epsilon.
COMMANDS = [
    ["run", "--epsilon", "0.1"],
    ["sweep", "--epsilons", "0.1", "--trials", "1"],
    ["verify", "pac", "--trials", "1"],
    ["verify", "lemma3", "--trials", "1"],
    ["verify", "eventc", "--trials", "1"],
    ["verify", "baseline", "--trials", "1"],
]
EPSILON_FLAGS = [
    ["run", "--epsilon"],
    ["sweep", "--trials", "2", "--epsilons"],
    ["verify", "pac", "--trials", "2", "--epsilon"],
]
# Values the library refuses that the parser passes on: (argv, last item).
REFUSED = [
    *((flags, epsilon) for flags in EPSILON_FLAGS for epsilon in ("0.5", "0.6", "-0.1", "nan")),
    (["sweep", "--trials", "2", "--epsilons"], ","),
    (["verify", "eventc", "--trials", "2", "--epsilon"], "0.51"),
    *((command[:-1], "0") for command in COMMANDS[1:]),
    (["verify", "eventc", "--trials", "1", "--depth"], "0"),
    (["verify", "lemma3", "--trials", "1", "--depth"], "-1"),
    (["verify", "eventc", "--trials", "1", "--depth"], "21"),
    (["verify", "lemma3", "--trials", "1", "--depth"], "21"),
    (["verify", "lemma3", "--trials", "1", "--depth"], "2000"),
    *(([*command, "--seed"], seed) for command in COMMANDS for seed in ("-1", str(2**64))),
]
# What a refusal must name, by the flag that set the refused value.
REFUSED_NAMES = {"--seed": "--seed", "--depth": "depth"}
# A refused count or an empty list gets the same line from every command.
REFUSED_COUNTS = [
    *((command[:-1], "0", "trials must be >= 1, got 0") for command in COMMANDS[1:]),
    (["sweep", "--trials", "1", "--epsilons"], ",", "epsilons must be non-empty"),
]


@pytest.fixture
def draws(monkeypatch):
    """Names of the RandomSource draw methods called, in call order."""
    calls = []
    for name in ("normal", "normals", "uniform_open", "uniforms_open"):
        original = getattr(RandomSource, name)
        monkeypatch.setattr(RandomSource, name, lambda *a, _f=original, _n=name:
                            calls.append(_n) or _f(*a))
    return calls


class TestRun:
    def test_json_fields_and_determinism(self, capsys):
        code, out, _ = run_cli(["run", "--epsilon", "0.1", "--seed", "7"], capsys)
        assert code == 0
        row = json.loads(out)
        assert list(row) == list(CSV_HEADER)
        result = run_oob(0.1, 7)
        assert row["n_evals"] == result.n_evals
        assert row["m_hat"] == result.m_hat
        assert row["t_hat"] == result.t_hat
        assert row["h_max"] == result.h_max
        assert row["seed"] == 7
        code2, out2, _ = run_cli(["run", "--epsilon", "0.1", "--seed", "7"], capsys)
        assert (code2, out2) == (0, out)

    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "row.json"
        code, out, _ = run_cli(
            ["run", "--epsilon", "0.2", "--seed", "3", "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["epsilon"] == 0.2

    def test_epsilon_above_half_exits_2(self, capsys):
        code, _, err = run_cli(["run", "--epsilon", "0.6", "--seed", "7"], capsys)
        assert code == 2
        assert "1/2" in err
        assert is_one_error_line(err)

    def test_epsilon_at_half_exits_2(self, capsys):
        code, _, err = run_cli(["run", "--epsilon", "0.5"], capsys)
        assert code == 2
        assert is_one_error_line(err)

    def test_small_epsilon_respects_cap(self, capsys):
        code, out, _ = run_cli(["run", "--epsilon", "0.01", "--seed", "1"], capsys)
        assert code == 0
        assert json.loads(out)["n_evals"] <= 2**20

    # No depth h <= MAX_DEPTH reaches an epsilon below about 1.217e-7, and at
    # 1e-320 epsilon * 2**-h underflows to 0: both are usage errors, refused
    # before any draw, also when they follow a usable epsilon in a list. So
    # is every value in REFUSED, each checked only by the library.
    @pytest.mark.parametrize("argv, value", [
        (["run", "--epsilon"], "1e-9"),
        (["run", "--epsilon"], "1e-320"),
        (["sweep", "--trials", "2", "--epsilons"], "1e-9"),
        (["sweep", "--trials", "2", "--epsilons"], "1e-320"),
        (["sweep", "--trials", "2", "--epsilons"], "0.1,1e-9"),
        (["verify", "pac", "--trials", "2", "--epsilon"], "1e-9"),
        (["verify", "pac", "--trials", "2", "--epsilon"], "1e-320"),
        *(pytest.param(argv, value, id=" ".join([*argv, value])) for argv, value in REFUSED),
    ])
    def test_unreachable_epsilon_exits_2(self, argv, value, tmp_path, capsys, draws):
        name = REFUSED_NAMES.get(argv[-1], "")
        target = tmp_path / "out.txt"
        code, out, err = run_cli([*argv, value, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("oob: error: ")
        assert err.count("\n") == 1
        assert name in err
        assert not target.exists()
        assert draws == []

    @pytest.mark.parametrize("argv, value, message", [
        pytest.param(argv, value, message, id=" ".join([*argv, value]))
        for argv, value, message in REFUSED_COUNTS
    ])
    def test_refused_count_names_its_value(self, argv, value, message, tmp_path, capsys, draws):
        target = tmp_path / "out.txt"
        code, out, err = run_cli([*argv, value, "--out", str(target)], capsys)
        assert (code, out, err) == (2, "", f"oob: error: {message}\n")
        assert not target.exists()
        assert draws == []


class TestSweep:
    def test_single_row(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--epsilons", "0.1", "--trials", "1", "--seed", "4"], capsys
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 2
        fields = lines[1].split(",")
        derived = derive_seed(4, 0)
        assert fields[1] == str(derived)
        result = run_oob(0.1, derived)
        assert int(fields[2]) == result.n_evals
        # 17 significant digits round-trip the double exactly.
        assert float(fields[3]) == result.m_hat
        assert float(fields[4]) == result.t_hat

    def test_default_epsilons_grouped(self, capsys):
        code, out, _ = run_cli(["sweep", "--trials", "2", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + 7 * 2
        eps_column = [line.split(",")[0] for line in lines[1:]]
        assert eps_column == sorted(eps_column, reverse=True)  # grouped, descending
        seeds = {line.split(",")[1] for line in lines[1:]}
        assert seeds == {str(derive_seed(1, 0)), str(derive_seed(1, 1))}

    def test_csv_bytes_deterministic(self, tmp_path, capsys):
        args = ["sweep", "--epsilons", "0.1,0.05", "--trials", "3", "--seed", "9"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--epsilons", "0.1", "--trials", "2", "--seed", "5",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert rows[0]["seed"] == derive_seed(5, 0)
        assert rows[0]["n_evals"] == run_oob(0.1, derive_seed(5, 0)).n_evals

    def test_holds_one_run_at_a_time(self, tmp_path):
        # Ten times the runs must not raise the traced peak by 1 MB: a
        # sweep keeps each run's row, not the run and its trace.
        def peak(trials):
            args = ["sweep", "--epsilons", "0.01", "--trials", str(trials)]
            tracemalloc.start()
            try:
                assert main([*args, "--out", str(tmp_path / f"{trials}.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # the parser and first-call imports, outside the comparison
        assert peak(200) - peak(20) < 1_000_000

    def test_matches_library_helper(self, capsys):
        rows = run_sweep((0.1,), 2, 5)
        assert [r.seed for r in rows] == [derive_seed(5, 0), derive_seed(5, 1)]

    def test_bad_epsilon_list_exits_2(self, capsys):
        code, _, err = run_cli(["sweep", "--epsilons", "0.1,0.7", "--trials", "1"], capsys)
        assert code == 2
        assert is_one_error_line(err)

    @pytest.mark.parametrize("epsilons, trials", [((0.1,), 0), ((), 5)])
    def test_empty_sweep_refused(self, epsilons, trials, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run was started")

        monkeypatch.setattr(oob.cli, "run_oob", no_run)
        with pytest.raises(ValueError):
            run_sweep(epsilons, trials, 5)


class TestVerify:
    def test_unknown_suite_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "nonsense"])
        assert info.value.code == 2

    def test_pac_small_passes(self, tmp_path, capsys):
        target = tmp_path / "pac.json"
        code, out, _ = run_cli(
            ["verify", "pac", "--epsilon", "0.1", "--trials", "40",
             "--seed", "1", "--out", str(target)],
            capsys,
        )
        assert code == 0
        report = json.loads(target.read_text())
        assert list(report) == [
            "trials", "violations", "empirical_rate", "bound",
            "wilson_upper_95", "passed", "metadata",
        ]
        assert report["passed"] is True
        assert report["trials"] == 40

    # Flags of removed options get argparse's usage error, not a silent default.
    @pytest.mark.parametrize("argv, removed", [
        pytest.param(argv, removed, id=" ".join([*argv, *removed])) for argv, removed in [
            # pac computes each run's exact failure probability; it takes no draws.
            (["verify", "pac", "--trials", "1"], ["--draws", "5"]),
            # The oracle depth changed nothing statistically.
            (["verify", "lemma3", "--depth", "3", "--trials", "5"], ["--oracle-depth", "9"]),
            # The baseline's targets are fixed: oob.analysis._EPSILONS.
            (["verify", "baseline", "--trials", "1"], ["--epsilons", "0.05,0.01"]),
        ]
    ])
    def test_removed_flag_exits_2(self, argv, removed, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, *removed])
        assert info.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}\n" in capsys.readouterr().err

    def test_pac_epsilon_below_floor_exits_2(self, capsys):
        # 2e-8 needs depth 59, past MAX_DEPTH = 53; the refusal names the floor.
        code, out, err = run_cli(["verify", "pac", "--epsilon", "2e-8", "--trials", "3"], capsys)
        assert code == 2
        assert out == ""
        assert "about 1.217e-7" in err
        assert is_one_error_line(err)

    def test_failing_suite_exits_1(self, capsys):
        # Depth-0 grids with eta = 0.1 average well above the quadratic
        # bound (endpoint hits alone contribute about 0.16 vs 0.06), so
        # this configuration must fail and signal it in the exit code.
        code, out, _ = run_cli(
            ["verify", "lemma3", "--depth", "0", "--eta", "0.1",
             "--trials", "400", "--seed", "11"],
            capsys,
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_lemma3_report_has_no_oracle_depth(self, capsys):
        code, out, _ = run_cli(
            ["verify", "lemma3", "--depth", "3", "--eta", "0.2",
             "--trials", "30", "--seed", "2"],
            capsys,
        )
        assert code == 0
        assert "oracle_depth" not in json.loads(out)["metadata"]

    @pytest.mark.parametrize("eta", ["nan", "inf"])
    def test_lemma3_non_finite_eta_exits_2(self, eta, tmp_path, capsys):
        target = tmp_path / "lemma3.json"
        code, _, err = run_cli(
            ["verify", "lemma3", "--eta", eta, "--trials", "5", "--out", str(target)],
            capsys,
        )
        assert code == 2
        assert "eta" in err
        assert not target.exists()

    @pytest.mark.parametrize("eta", ["1e308", "1e154"])
    def test_lemma3_overflowing_bound_exits_2(self, eta, tmp_path, capsys):
        target = tmp_path / "lemma3.json"
        code, _, err = run_cli(
            ["verify", "lemma3", "--eta", eta, "--depth", "2", "--trials", "2",
             "--out", str(target)],
            capsys,
        )
        assert code == 2
        assert "overflows" in err
        assert not target.exists()

    @pytest.mark.parametrize("suite", ["lemma3", "eventc"])
    @pytest.mark.parametrize("depth", [MAX_GRID_DEPTH + 1, 34])
    def test_depth_past_ceiling_exits_2(self, suite, depth, tmp_path, capsys, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was requested")

        monkeypatch.setattr(oob.analysis, "_grid_blocks", no_grid)
        target = tmp_path / "suite.json"
        code, out, err = run_cli(
            ["verify", suite, "--depth", str(depth), "--trials", "1", "--out", str(target)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("oob: error: ")
        assert f"<= {MAX_GRID_DEPTH}, got {depth}" in err
        assert not target.exists()

    def test_eventc_allows_epsilon_half(self, capsys):
        code, out, _ = run_cli(
            ["verify", "eventc", "--epsilon", "0.5", "--depth", "5",
             "--trials", "200", "--seed", "3"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["bound"] == 0.5**5
        assert report["wilson_upper_95"] is not None

    def test_eventc_rejects_epsilon_above_half(self, capsys):
        code, _, err = run_cli(["verify", "eventc", "--epsilon", "0.51", "--trials", "10"], capsys)
        assert code == 2
        assert is_one_error_line(err)

    def test_report_bytes_deterministic(self, tmp_path, capsys):
        # 100 clean trials cannot confirm epsilon**5 at epsilon = 1/2 (that
        # takes 120), so both runs report a failed verdict.
        args = ["verify", "eventc", "--epsilon", "0.5", "--depth", "4",
                "--trials", "100", "--seed", "8"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["--out", str(first)]) == 1
        assert main(args + ["--out", str(second)]) == 1
        assert first.read_bytes() == second.read_bytes()


class TestOut:
    @pytest.mark.parametrize("argv", [
        ["run", "--epsilon", "0.1", "--seed", "1"],
        ["verify", "eventc", "--depth", "4", "--trials", "20", "--seed", "1"],
    ], ids=["run", "verify-eventc"])
    @pytest.mark.parametrize("where", ["missing-parent", "directory"])
    def test_unwritable_out_exits_2(self, argv, where, tmp_path, capsys):
        target = tmp_path / "missing" / "x.json" if where == "missing-parent" else tmp_path
        code, out, err = run_cli([*argv, "--out", str(target)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("oob: error: ")
        assert str(target) in err
        assert "Traceback" not in err


class TestSuiteLookup:
    def test_cached_parser_calls_suites_through_module_globals(self, monkeypatch, capsys):
        # The parser is built once per process; a suite function bound at
        # build time would escape a wrapper installed on the module later.
        suites = {
            "lemma3_mc": ["verify", "lemma3", "--depth", "3", "--trials", "20", "--seed", "4"],
            "event_c_check": ["verify", "eventc", "--depth", "4", "--trials", "50", "--seed", "4"],
        }
        before = {name: run_cli(argv, capsys) for name, argv in suites.items()}
        parser = build_parser()
        calls = []

        def recording(name):
            real = getattr(oob.cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        for name in suites:
            monkeypatch.setattr(oob.cli, name, recording(name))
        after = {name: run_cli(argv, capsys) for name, argv in suites.items()}
        assert build_parser() is parser
        assert calls == list(suites)
        assert after == before


class TestSeedResolution:
    def test_environment_never_seeds(self, capsys, monkeypatch):
        # A command's bytes are a function of its argv: a variable that once
        # supplied the seed is ignored.
        monkeypatch.delenv("OOB_SEED", raising=False)
        unset = run_cli(["run", "--epsilon", "0.2"], capsys)
        monkeypatch.setenv("OOB_SEED", "123")
        assert run_cli(["run", "--epsilon", "0.2"], capsys) == unset
        assert json.loads(unset[1])["seed"] == 0

    def test_default_seed_zero(self, capsys):
        _, out, _ = run_cli(["run", "--epsilon", "0.2"], capsys)
        assert json.loads(out)["seed"] == 0

    @pytest.mark.parametrize("text,value", [("010", 10), ("0x10", 16)])
    def test_seed_forms(self, text, value, capsys):
        # Plain digits are decimal even with a leading zero; 0x still reads hex.
        _, from_text, _ = run_cli(["run", "--epsilon", "0.2", "--seed", text], capsys)
        _, from_value, _ = run_cli(["run", "--epsilon", "0.2", "--seed", str(value)], capsys)
        assert json.loads(from_text)["seed"] == value
        assert from_text == from_value

    def test_bad_seed_flag_exits_2(self, capsys):
        # Text that is not an integer gets argparse's usage message, like
        # every other flag.
        with pytest.raises(SystemExit) as exited:
            main(["run", "--epsilon", "0.2", "--seed", "bad"])
        err = capsys.readouterr().err
        assert exited.value.code == 2
        assert err.startswith("usage: oob run")
        assert "argument --seed: not an integer: 'bad'" in err


def test_no_module_reads_the_environment():
    # Output depends on argv alone: no source module may read os.environ or
    # os.getenv, by attribute or by import.
    source_dir = pathlib.Path(oob.cli.__file__).parent
    hidden = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(source_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in hidden:
                found.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno}" for a in node.names if a.name in hidden]
    assert len(list(source_dir.glob("*.py"))) >= 6
    assert found == []


def test_readme_commands_parse():
    # Every `oob ...` line in README's sh blocks must still parse, so that a
    # removed or renamed flag cannot stay documented.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("oob ")]
    assert len(lines) >= 6
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_process_exit_status_2():
    # The status the process really exits with, not an in-process SystemExit:
    # a value the library refuses gets one line, text that is not a number
    # argparse's usage message.
    def oob(*argv):
        return subprocess.run(
            [sys.executable, "-m", "oob.cli", *argv], capture_output=True, text=True
        )

    refused = oob("run", "--epsilon", "0.6")
    assert refused.returncode == 2
    assert refused.stdout == ""
    assert is_one_error_line(refused.stderr)
    garbled = oob("run", "--epsilon", "abc")
    assert garbled.returncode == 2
    assert garbled.stderr.startswith("usage: oob run")
    assert "argument --epsilon: invalid float value: 'abc'" in garbled.stderr
