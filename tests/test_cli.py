"""CLI contract tests: exit codes, determinism, report schemas."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from syndef import cli
from syndef.cli import main
from syndef.core import DecodeFailure


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

    @pytest.mark.parametrize("mode", ["sampled:abc", "sampled:0", "sampled:-3"])
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

    def test_unknown_task_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["frobnicate", "--n", "4"])
        assert err.value.code == 2

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

    def test_sketch_audit(self, tmp_path):
        out = tmp_path / "audit.json"
        assert run_cli(["sketch-audit", "--n", "8", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["metrics"]["all_ok"] is True


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
