"""CLI contract tests: exit codes, determinism, report schemas."""

import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from syndef import cli
from syndef.cli import main
from syndef.core import DecodeFailure, ParameterError, all_strands, cycles
from syndef.reports import check_ceiling, stratified_delta_pairs


def run_cli(args):
    return main(args)


class TestExitCodes:
    def test_bounds_pass(self, tmp_path):
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--n", "5", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metrics"]["cover_size"] == 1012
        assert data["metrics"]["cover_verified"] is True

    def test_usage_error(self):
        assert run_cli(["simulate", "--n", "8", "--m", "4", "--t", "3"]) == 2

    @pytest.mark.parametrize("mode", ["sampled:abc", "sampled:0", "sampled:-3", "sampled:3_0",
                                      "sampled: 4", "sampled:+5", "sampled:\u0663", "sampled:07"])
    def test_bad_sample_count_exits_two(self, mode, capsys):
        assert run_cli(["verify-kdcc", "--family", "array2", "--n", "6",
                        "--mode", mode]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_bad_ceiling_override_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("SYNDEF_MAX_EXHAUSTIVE_N", "x")
        assert run_cli(["enumerate", "--family", "sum1", "--n", "4"]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("family, params", [
        ("sum1", "{}"),
        ("svt1", "[1,2]"),
        ("array2", '{"a": [0], "b": 0}'),
    ])
    def test_bad_residues_exit_two(self, family, params, capsys):
        assert run_cli(["enumerate", "--family", family, "--n", "4",
                        "--params", params]) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("m, t", [(3, 1), (5, 2)])
    def test_fewer_strands_than_covers_exits_two(self, m, t, capsys):
        assert run_cli(["simulate", "--n", "16", "--m", str(m), "--t", str(t)]) == 2
        assert "cover count" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n", "0"],
        ["simulate", "--n", "-3"],
        ["simulate", "--n", "0", "--t", "2"],
        ["verify-sdcc", "--n", "0"],
        ["verify-kdcc", "--family", "sum1", "--n", "-1"],
        ["enumerate", "--n", "-1"],
        ["bounds", "--n", "-2"],
        ["sketch-audit", "--n", "2"],
        ["sketch-audit", "--n", "-5"],
    ])
    def test_bad_n_exits_two(self, argv, capsys):
        assert run_cli(argv) == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["verify-kdcc", "--family", "sum1", "--n", "4", "--mode", "sampled:5"],
        ["verify-kdcc", "--family", "svt1", "--n", "4", "--mode", "sampled:5"],
        ["simulate", "--t", "1", "--n", "8", "--mode", "sampled:5"],
        ["verify-sdcc", "--t", "1", "--n", "8", "--mode", "sampled:5"],
    ])
    def test_sampled_mode_without_sampling_exits_two(self, argv, capsys):
        # these sweeps are always exhaustive, so a report saying sampled:K would lie
        assert run_cli(argv) == 2
        assert "no sampled mode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, text", [
        (["verify-kdcc", "--family", "sum2", "--n", "3"], "unknown family 'sum2'"),
        (["verify-kdcc", "--family", "array2", "--n", "4", "--mode", "every"],
         "unknown mode 'every'"),
        (["simulate", "--t", "1", "--n", "2", "--m", "4"],
         "single-defect tuple coding needs n >= 3"),
        (["verify-sdcc", "--t", "1", "--n", "2", "--m", "4"],
         "single-defect tuple coding needs n >= 3"),
    ])
    def test_parameter_error_exits_two(self, argv, text, capsys):
        assert run_cli(argv) == 2
        assert capsys.readouterr().err == f"usage error: {text}\n"

    def test_unknown_task_exits_two(self, capsys):
        # argparse's own usage errors come back as the return value too
        assert run_cli(["frobnicate", "--n", "4"]) == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_known_flaw_reported_as_failure(self, tmp_path):
        # two interacting defects are sometimes ambiguous for the
        # signature-bound family; the driver must say so, not hide it
        out = tmp_path / "array2.json"
        code = run_cli(["verify-kdcc", "--family", "array2", "--n", "12",
                        "--seed", "3", "--mode", "sampled:40",
                        "--out", str(out)])
        data = json.loads(out.read_text())
        if data["metrics"]["decode_failures"]:
            assert code == 1 and not data["passed"]
        else:
            assert code == 0


# A small argv grammar: every task, and each option valid or malformed.  Valid
# lengths stay at most 4, so that every exhaustive sweep is quick.
LENGTHS = ["1", "2", "3", "4", "0", "-2", "x", "1.5", ""]
OPTION_VALUES = {
    "m": ["1", "3", "8", "0", "-1", "x"],
    "t": ["1", "2", "3", "0", "x"],
    "mode": ["exhaustive", "sampled:3", "sampled:0", "sampled:x", "sampled:", "bogus"],
    "params": ["best", '{"a": 1}', '{"a": 1, "b": 0}', "{}", "[1, 2]", "{", '{"a": 9}',
               "null", "3", '{"a": [0, 1, 2, 0, 1, 2, 0, 1, 2], "b": 0}'],
    "family": ["sum1", "svt1", "array2", "bogus", ""],
    "seed": ["0", "7", "-1", "x"],
}


def foreign_options(task):
    """The options of the CLI that ``task`` does not read."""
    return sorted(set(cli.OPTIONS) - set(cli.TASKS[task][1]))


@st.composite
def cli_argv(draw):
    """A task with its own options; now and then one option it does not read."""
    task = draw(st.sampled_from(sorted(cli.TASKS) + ["bogus"]))
    argv = [task]
    if draw(st.integers(0, 4)):  # --n is required; leave it out now and then
        argv += ["--n", draw(st.sampled_from(LENGTHS))]
    options = []
    if task in cli.TASKS:
        if cli.TASKS[task][1]:
            options = draw(st.lists(st.sampled_from(cli.TASKS[task][1]), unique=True))
        if not draw(st.integers(0, 7)):
            options.append(draw(st.sampled_from(foreign_options(task))))
    for option in draw(st.permutations(options)):
        argv += [f"--{option}", draw(st.sampled_from(OPTION_VALUES[option]))]
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=cli_argv())
def test_fuzzed_argv_exits_with_a_code(argv, tmp_path, capsys):
    """Whatever the grammar draws, ``main`` returns 0, 1 or 2 and lets no
    exception out; a usage error says so on stderr, and a foreign option is
    one."""
    code = run_cli(argv + ["--out", str(tmp_path / "report.json")])
    assert code in (0, 1, 2), argv
    if code == 2:
        err = capsys.readouterr().err
        assert "usage error" in err or "usage:" in err, argv
    if argv[0] in cli.TASKS and set(argv) & {f"--{o}" for o in foreign_options(argv[0])}:
        assert code == 2, argv
    capsys.readouterr()


class TestTaskOptions:
    """``cli.TASKS`` is the one declaration of each task's options."""

    @pytest.mark.parametrize("task", sorted(cli.TASKS))
    def test_parser_holds_exactly_the_declared_options(self, task):
        args = vars(cli.build_parser().parse_args([task, "--n", "3"]))
        options = cli.TASKS[task][1]
        assert args == dict({o: cli.OPTIONS[o][1] for o in options},
                            task=task, n=3, out=None)

    @pytest.mark.parametrize("task, option", [
        (task, option) for task in sorted(cli.TASKS) for option in foreign_options(task)])
    def test_foreign_option_is_a_usage_error(self, task, option, tmp_path, capsys):
        # also where the option is a prefix of one the task reads (--m, --mode)
        out = tmp_path / "report.json"
        value = OPTION_VALUES[option][0]
        assert run_cli([task, "--n", "3", f"--{option}", value, "--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", sorted(cli.TASKS))
    def test_foreign_option_reported_under_the_task_usage(self, task, capsys):
        # the usage shown is the task's, which lists the options it does take
        option = foreign_options(task)[0]
        assert run_cli([task, "--n", "3", f"--{option}", OPTION_VALUES[option][0]]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: syndef {task} ")
        assert f"syndef {task}: error: unrecognized arguments: --{option}" in err

    @pytest.mark.parametrize("task", sorted(cli.TASKS))
    def test_runner_reads_exactly_the_declared_options(self, task):
        """The ``args.<name>`` loads of the runner, found in its source, are
        its declared options plus ``n``, ``out`` and ``task``; ``args`` is not
        handed on, so no read hides in a helper."""
        runner, options = cli.TASKS[task]
        tree = ast.parse(inspect.getsource(runner))
        loads = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "args"]
        uses = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
                and node.id == "args"]
        assert len(uses) == len(loads)  # ``args`` only ever as ``args.<name>``
        assert {node.attr for node in loads} - {"n", "out", "task"} == set(options)


class TestArray2Modes:
    def test_exhaustive_sweeps_every_strand(self, tmp_path):
        out = tmp_path / "array2.json"
        run_cli(["verify-kdcc", "--family", "array2", "--n", "4",
                 "--mode", "exhaustive", "--out", str(out)])
        assert json.loads(out.read_text())["metrics"]["cases"] == 4 ** 4 * 6

    def test_sampled_count_is_the_strand_count(self, tmp_path):
        out = tmp_path / "array2.json"
        run_cli(["verify-kdcc", "--family", "array2", "--n", "6",
                 "--mode", "sampled:7", "--out", str(out)])
        assert json.loads(out.read_text())["metrics"]["cases"] == 7 * 15

    def test_exhaustive_respects_the_ceiling(self):
        assert run_cli(["verify-kdcc", "--family", "array2", "--n", "8"]) == 2


class TestSimulateT2Modes:
    def test_exhaustive_decodes_every_defect_set(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--n", "12", "--m", "8", "--t", "2",
                        "--out", str(out)]) == 0
        metrics = json.loads(out.read_text())["metrics"]
        assert metrics["cases"] == 48 + 48 * 47 // 2 == 1176
        assert metrics["failures"] == 0

    def test_exhaustive_respects_the_ceiling(self, monkeypatch):
        assert run_cli(["simulate", "--n", "33", "--t", "2"]) == 2
        monkeypatch.setenv("SYNDEF_MAX_EXHAUSTIVE_N", "11")
        assert run_cli(["simulate", "--n", "12", "--t", "2"]) == 2

    def test_sampled_keeps_the_stratified_sample(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run_cli(["verify-sdcc", "--n", "12", "--m", "8", "--t", "2",
                        "--mode", "sampled:7", "--out", str(out)]) == 0
        # max(2n, 7) = 24 pairs touching every cycle, plus every fifth single
        assert json.loads(out.read_text())["metrics"]["cases"] == 24 + 10


class TestReports:
    def test_verify_kdcc_sum1(self, tmp_path):
        out = tmp_path / "sum1.csv"
        assert run_cli(["verify-kdcc", "--family", "sum1", "--n", "5",
                        "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0]
        for column in ("code_size", "redundancy_bits", "verified", "wall_time"):
            assert column in header

    def test_enumerate_best(self, tmp_path):
        out = tmp_path / "book.json"
        assert run_cli(["enumerate", "--family", "sum1", "--n", "3",
                        "--params", "best", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["size"] >= 16
        assert data["strands"] == sorted(data["strands"])

    def test_enumerate_fixed_residues_matches_membership(self, tmp_path):
        from syndef.kdcc import KdccSpec, membership
        out = tmp_path / "svt1.json"
        assert run_cli(["enumerate", "--family", "svt1", "--n", "5",
                        "--params", json.dumps({"a": 0, "b": 0}),
                        "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        spec = KdccSpec("svt1", 5, {"a": 0, "b": 0})
        assert data["size"] == sum(
            membership(spec, x) for x in __import__("syndef.core", fromlist=["all_strands"]).all_strands(5))

    def test_enumerate_ceiling(self):
        assert run_cli(["enumerate", "--family", "sum1", "--n", "11"]) == 2

    def test_simulate_t1(self, tmp_path):
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--n", "16", "--m", "8", "--t", "1",
                        "--seed", "7", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metrics"]["success_rate"] == 1.0
        assert data["metrics"]["cases"] == 64

    @pytest.mark.parametrize("raises", [True, False])
    def test_simulate_one_counterexample_per_failure(self, tmp_path, monkeypatch, raises):
        def broken_decoder(received, plan, params):
            if raises:
                raise DecodeFailure("injected")
            return received, None

        monkeypatch.setattr(cli, "sdcc1_decode", broken_decoder)
        out = tmp_path / "sim.json"
        assert run_cli(["simulate", "--n", "16", "--m", "8", "--t", "1",
                        "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["metrics"]["failures"] == 64
        extra = {"error": "injected"} if raises else {}
        assert data["counterexamples"] == [dict(delta=[d], **extra) for d in range(1, 11)]

    def test_array2_records_a_wrong_strand(self, tmp_path, monkeypatch):
        # a decode that returns the received word: wrong, but raises nothing
        monkeypatch.setattr(cli, "decode", lambda spec, inst: inst.received)
        out = tmp_path / "array2.json"
        assert run_cli(["verify-kdcc", "--family", "array2", "--n", "4",
                        "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["metrics"]["decode_failures"] == 4 ** 4 * 6
        cases = [{"strand": list(x), "delta": list(pair)}
                 for x in all_strands(4) for pair in combinations(cycles(x), 2)]
        assert data["counterexamples"] == cases[:10]

    @pytest.mark.parametrize("family", ["sum1", "svt1"])
    def test_single_defect_records_the_error(self, family, tmp_path, monkeypatch):
        def broken_decoder(received, d):
            raise DecodeFailure("injected")

        monkeypatch.setattr(cli, "hit_decoder", lambda spec: broken_decoder)
        out = tmp_path / "single.json"
        assert run_cli(["verify-kdcc", "--family", family, "--n", "4",
                        "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["metrics"]["disjoint"] is True
        assert data["metrics"]["decode_failures"] == 4 * data["metrics"]["code_size"]
        assert len(data["counterexamples"]) == 10
        assert all(c.keys() == {"strand", "delta", "error"} and c["error"] == "injected"
                   for c in data["counterexamples"])

    @pytest.mark.parametrize("family", ["sum1", "svt1"])
    def test_clashes_first_and_at_most_ten(self, family, tmp_path, monkeypatch):
        # all of Sigma^3 is no code: more than ten pairs clash under a cycle
        monkeypatch.setattr(cli, "enumerate_codebook", lambda spec: all_strands(3))
        out = tmp_path / "single.json"
        assert run_cli(["verify-kdcc", "--family", family, "--n", "3",
                        "--out", str(out)]) == 1
        data = json.loads(out.read_text())
        assert data["metrics"]["disjoint"] is False
        assert data["metrics"]["decode_failures"] > 0
        assert len(data["counterexamples"]) == 10
        assert all(c.keys() == {"strands", "delta"} for c in data["counterexamples"])
        assert data["counterexamples"][0] == {"strands": [[1, 1, 2], [1, 2, 1]], "delta": [5]}

    def test_sketch_audit(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run_cli(["sketch-audit", "--n", "8", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metrics"]["all_ok"] is True


class TestReportHelpers:
    def test_sample_beyond_every_pair_takes_every_pair(self):
        # [1, 8] holds 28 pairs: asking for 100 once drew forever
        assert sorted(stratified_delta_pairs(2, 100, 0)) == list(combinations(range(1, 9), 2))

    def test_unknown_sweep_kind(self):
        with pytest.raises(ParameterError, match="^unknown sweep kind 'nope'$"):
            check_ceiling("nope", 3)


class TestDeterminism:
    def test_json_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert run_cli(["verify-sdcc", "--n", "16", "--m", "8", "--t", "2",
                            "--seed", "11", "--mode", "sampled:40",
                            "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_enumerate_idempotent(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(["enumerate", "--family", "svt1", "--n", "4",
                     "--params", "best", "--out", str(path)])
        assert a.read_bytes() == b.read_bytes()


class TestReportDigests:
    """Report bytes of the exhaustive sweeps, pinned by sha256.

    The six fixed tasks of the benchmark's ``cli`` workload are checked
    against ``perfbench/cli_digests.json``, which this test only reads.  The
    pins below cover sweeps the benchmark does not digest."""

    BENCHMARK_TASKS = {
        "verify-kdcc-sum1-n7": ["verify-kdcc", "--family", "sum1", "--n", "7"],
        "verify-kdcc-svt1-n7": ["verify-kdcc", "--family", "svt1", "--n", "7"],
        "enumerate-svt1-n8": ["enumerate", "--family", "svt1", "--n", "8",
                              "--params", "best"],
        "bounds-n6": ["bounds", "--n", "6"],
        "bounds-n8": ["bounds", "--n", "8"],
        "sketch-audit-n15": ["sketch-audit", "--n", "15"],
    }
    PINNED = {
        ("enumerate", "--family", "sum1", "--n", "6", "--params", "best"):
            "938597cf01fce1f2c5eaec3b47e617b2f76fb77e6afdf00d68ec9c7c2a816359",
        ("enumerate", "--family", "array2", "--n", "6", "--params", "best"):
            "cd5f39a69ad175180a7c3febbc81afa4bb8307be9695d0fb7ec10ca65f274dd5",
        ("bounds", "--n", "7"):
            "9702638004a20b3e4d6c4e514669d976b9c3fab5275c63c2438bba3af7f25d21",
        ("verify-kdcc", "--family", "svt1", "--n", "5"):
            "fc59af09049220b7e0dd82e7f65890e77c6990d9751a1caba74f9e2b0bfaebcf",
    }

    @staticmethod
    def digest(argv, out):
        assert run_cli(list(argv) + ["--out", str(out)]) == 0
        return hashlib.sha256(out.read_bytes()).hexdigest()

    @pytest.mark.parametrize("key", sorted(BENCHMARK_TASKS))
    def test_benchmark_tasks(self, key, tmp_path):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "cli_digests.json"
        recorded = json.loads(path.read_text())[key]
        assert self.digest(self.BENCHMARK_TASKS[key], tmp_path / "r.json") == recorded

    @pytest.mark.parametrize("argv", sorted(PINNED))
    def test_pinned(self, argv, tmp_path):
        assert self.digest(argv, tmp_path / "r.json") == self.PINNED[argv]


class TestConsoleEntry:
    def test_module_invocation(self):
        # the child imports the same syndef as this process, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "syndef.cli", "bounds", "--n", "5"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert "[pass] bounds" in proc.stdout
