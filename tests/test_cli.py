import json
from pathlib import Path

import numpy as np
import pytest

from kvmflow.cli import main

EX1_JSON = '{"label": "example-4x4", "n": 4, "offdiag": [5, -6, -2]}'
FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def ex1_file(tmp_path):
    path = tmp_path / "ex1.json"
    path.write_text(EX1_JSON)
    return path


@pytest.fixture
def sym_file(tmp_path):
    path = tmp_path / "sym.json"
    path.write_text('{"symmetric": [[0, 1, 0.5], [1, 0, -2], [0.5, -2, 0.25]]}')
    return path


def _args(*tokens):
    return [str(t) for t in tokens]


class TestEvolve:
    def test_example1(self, ex1_file, tmp_path):
        csv_path = tmp_path / "traj.csv"
        summary_path = tmp_path / "summary.json"
        code = main(_args("evolve", "--input", ex1_file, "--t-max", "1",
                          "--out-csv", csv_path, "--out-summary", summary_path))
        assert code == 0
        summary = json.loads(summary_path.read_text())
        final = np.array(summary["final_offdiag"])
        assert np.abs(final - [1.26, 0.0, -7.96]).max() < 0.01
        assert summary["label"] == "example-4x4"
        first_row = csv_path.read_text().splitlines()[1].split(",")
        assert first_row[1:4] == ["5", "-6", "-2"]

    def test_inline_offdiag_to_stdout(self, capsys):
        assert main(_args("evolve", "--offdiag=5,-6,-2", "--t-max", "1")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] in {"converged", "horizon_reached"}

    def test_strict_false_allows_zero_entries(self, capsys):
        code = main(_args("evolve", "--offdiag=1,0,0.5,2", "--strict", "false",
                          "--t-max", "5"))
        assert code == 0

    def test_zero_entry_rejected_when_strict(self, capsys):
        code = main(_args("evolve", "--offdiag=1,0,0.5,2"))
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestPredict:
    def test_closed_form_values(self, capsys):
        assert main(_args("predict", "--offdiag=5,-6,-2")) == 0
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(summary["predicted_limit"],
                                   [1.2557, 0.0, -7.9639], atol=5e-5)

    def test_stationary_input_reported(self, capsys):
        assert main(_args("predict", "--offdiag=1.26,0,-7.96")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "stationary_input"
        assert summary["predicted_limit"] is None


class TestVerify:
    def test_example1_passes(self, ex1_file):
        assert main(_args("verify", "--input", ex1_file)) == 0

    def test_exit_2_when_checks_fail(self, ex1_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(_args("verify", "--input", ex1_file, "--t-max", "0.001",
                          "--out-summary", out))
        assert code == 2
        assert json.loads(out.read_text())["overall"] is False

    def test_seeded_runs_are_byte_identical(self, ex1_file, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(_args("verify", "--input", ex1_file, "--seed", "11",
                              "--out-summary", p)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("name", ["ex1.json", "ex2.json", "ex3.json"])
    def test_shipped_fixtures_verify_clean(self, name):
        assert main(_args("verify", "--input", FIXTURES / name)) == 0


class TestSpectrum:
    def test_offdiag_input(self, capsys):
        assert main(_args("spectrum", "--offdiag=5,-6,-2")) == 0
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(np.abs(summary["spectrum"]),
                                   [7.96, 1.26, 1.26, 7.96], atol=0.005)
        assert summary["paired"] is True

    def test_symmetric_input(self, sym_file, capsys):
        assert main(_args("spectrum", "--input", sym_file)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["spectrum"]) == 3


class TestEquilibria:
    def test_counts_for_example1(self, capsys):
        assert main(_args("equilibria", "--offdiag=5,-6,-2",
                          "--include-signs", "false")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["count_formula"] == 2
        assert summary["count_with_signs"] == 8
        assert len(summary["points"]) == 2

    def test_signed_enumeration(self, capsys):
        assert main(_args("equilibria", "--offdiag=5,-6,-2")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["points"]) == 8


class TestEvolveSym:
    def test_experimental_run(self, sym_file, tmp_path, capsys):
        csv_path = tmp_path / "diag.csv"
        assert main(_args("evolve-sym", "--input", sym_file, "--t-max", "2",
                          "--out-csv", csv_path)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "experimental-symmetric"
        assert "experimental" in summary["notes"]
        assert "final_blocks" in summary
        assert csv_path.read_text().splitlines()[0] == "t,f,k_norm,spec_drift"

    def test_requires_symmetric_document(self, ex1_file, capsys):
        assert main(_args("evolve-sym", "--input", ex1_file)) == 1


class TestErrorPaths:
    def test_missing_file(self, tmp_path, capsys):
        assert main(_args("evolve", "--input", tmp_path / "nope.json")) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(_args("evolve", "--input", bad)) == 1

    def test_unknown_flag_rejected(self, capsys):
        assert main(_args("evolve", "--offdiag=1,2", "--frobnicate")) == 1

    def test_both_input_sources_rejected(self, ex1_file, capsys):
        assert main(_args("evolve", "--input", ex1_file, "--offdiag=1,2")) == 1

    def test_missing_input_rejected(self, capsys):
        assert main(_args("evolve")) == 1

    def test_evolve_rejects_symmetric_document(self, sym_file, capsys):
        assert main(_args("evolve", "--input", sym_file)) == 1

    def test_bad_inline_entry_is_one_line_error(self, capsys):
        assert main(_args("verify", "--offdiag=5,x")) == 1
        err = capsys.readouterr().err
        assert err == "kvmflow: error: --offdiag entry 'x' is not a number\n"
