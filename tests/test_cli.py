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

    def test_summary_spectrum_is_the_trajectory_reference(self, monkeypatch, capsys):
        from kvmflow import cli, spectral

        def no_second_bisection(*args, **kwargs):
            raise AssertionError("evolve bisected the t=0 spectrum again")

        monkeypatch.setattr(cli, "eigenvalues_tridiagonal", no_second_bisection)
        assert main(_args("evolve", "--offdiag=5,-6,-2", "--t-max", "1")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["spectrum"] == spectral.spectrum_zero_diag([5, -6, -2]).values.tolist()

    def test_strict_false_allows_zero_entries(self, capsys):
        code = main(_args("evolve", "--offdiag=1,0,0.5,2", "--strict", "false",
                          "--t-max", "5"))
        assert code == 0

    def test_zero_entry_rejected_when_strict(self, capsys):
        code = main(_args("evolve", "--offdiag=1,0,0.5,2"))
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_fixed_step_run_ends_exactly_on_the_horizon(self, tmp_path, capsys):
        # rk4 time comes from the step index: no sliver step after 1 - 5.5e-14
        csv_path = tmp_path / "s.csv"
        assert main(_args("evolve", "--offdiag=5,-6,-2", "--method", "rk4",
                          "--dt", "5e-4", "--t-max", "1", "--eq-eps", "0",
                          "--out-csv", csv_path)) == 0
        rows = csv_path.read_text().splitlines()[1:]
        assert len(rows) == 2001
        assert float(rows[-1].split(",")[0]) == 1.0


class TestPredict:
    def test_closed_form_values(self, capsys):
        assert main(_args("predict", "--offdiag=5,-6,-2")) == 0
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(summary["predicted_limit"],
                                   [1.2557, 0.0, -7.9639], atol=5e-5)

    def test_tiny_input_predicts_the_scaled_limit(self, capsys):
        assert main(_args("predict", "--offdiag=5e-60,-6e-60,-2e-60")) == 0
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(summary["predicted_limit"],
                                   np.array([1.25567, 0.0, -7.96387]) * 1e-60,
                                   rtol=0, atol=5e-65)

    def test_stationary_input_reported(self, capsys):
        assert main(_args("predict", "--offdiag=1.26,0,-7.96")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "stationary_input"
        assert summary["predicted_limit"] is None


class TestVerify:
    def test_example1_passes(self, ex1_file, capsys):
        assert main(_args("verify", "--input", ex1_file)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["input"]["offdiag"] == [5.0, -6.0, -2.0]
        assert summary["status"] == "converged"
        assert summary["overall"] is True
        assert summary["predicted_limit"][0] == pytest.approx(1.2557, abs=5e-4)
        assert summary["checks"][0]["name"] == "spectral_drift"

    def test_exit_2_when_checks_fail(self, ex1_file, tmp_path):
        out = tmp_path / "report.json"
        code = main(_args("verify", "--input", ex1_file, "--t-max", "0.001",
                          "--out-summary", out))
        assert code == 2
        summary = json.loads(out.read_text())
        assert summary["overall"] is False
        assert summary["status"] == "horizon_reached"

    def test_seeded_runs_are_byte_identical(self, ex1_file, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for p in paths:
            assert main(_args("verify", "--input", ex1_file, "--out-summary", p)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_small_input_is_not_stationary(self, capsys):
        # ex1 * 1e-6 moves 1e12 times slower than ex1: at t_max = 10 it has
        # barely moved, which is a failed check, not a stationary pass
        assert main(_args("verify", "--offdiag=5e-6,-6e-6,-2e-6")) == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "horizon_reached"
        assert summary["overall"] is False

    @pytest.mark.parametrize("name", ["ex1.json", "ex2.json", "ex3.json"])
    def test_shipped_fixtures_verify_clean(self, name):
        assert main(_args("verify", "--input", FIXTURES / name)) == 0

    def test_overflowing_first_step_is_shrunk(self, capsys):
        # a trial step of 0.1 overflows on ex3; it must be rejected and
        # shrunk, not reported as a step underflow
        assert main(_args("verify", "--input", FIXTURES / "ex3.json", "--dt", "0.1")) == 0


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

    @pytest.mark.parametrize("command", ["predict", "verify", "spectrum", "equilibria"])
    def test_out_csv_only_for_evolve(self, command, tmp_path, capsys):
        target = tmp_path / "x.csv"
        assert main(_args(command, "--offdiag=5,-6,-2", "--out-csv", target)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "unrecognized arguments: --out-csv" in err
        assert not target.exists()

    @pytest.mark.filterwarnings("error")  # a numpy warning would add lines
    @pytest.mark.parametrize("tokens", [
        ["verify", "--offdiag=1e200,1e200,1e200"],
        ["verify", "--offdiag=1e200,1e200,1e200", "--eq-eps", "1"],
        ["evolve", "--offdiag=5,-6,-2", "--method", "rk4", "--dt", "0.5"],
        ["evolve-sym", "--method", "rk4", "--dt", "0.5", "--t-max", "5"],
        ["equilibria", "--input", FIXTURES / "ex3.json"],
        ["spectrum", "--offdiag=1e200,1e200,1e200"],
        ["predict", "--offdiag=1e200,1e200,1e200"],
        ["verify", "--offdiag=5,-6,-2", "--abs-tol", "inf"],
        ["evolve", "--offdiag=5,-6,-2", "--method", "rk4", "--dt", "1e-9"],
    ], ids=["verify-overflow", "verify-overflow-eq-eps", "evolve-rk4-diverges",
            "evolve-sym-rk4-diverges", "equilibria-too-many", "spectrum-overflow",
            "predict-overflow", "abs-tol-inf", "evolve-rk4-too-many-steps"])
    def test_out_of_range_run_is_one_line_error(self, tokens, tmp_path, capsys):
        if tokens[0] == "evolve-sym":
            H = np.random.default_rng(8).normal(size=(8, 8))
            path = tmp_path / "sym8.json"
            path.write_text(json.dumps({"symmetric": (0.5 * (H + H.T)).tolist()}))
            tokens = tokens + ["--input", path]
        assert main(_args(*tokens)) == 1
        err = capsys.readouterr().err
        assert err.startswith("kvmflow: error: ") and err.count("\n") == 1

    def test_bad_inline_entry_is_one_line_error(self, capsys):
        assert main(_args("verify", "--offdiag=5,x")) == 1
        err = capsys.readouterr().err
        assert err == "kvmflow: error: --offdiag entry 'x' is not a number\n"


class TestDegenerateSpectrum:
    """The library and the CLI reject a degenerate spectrum with one error."""

    A0 = [1.0, 1e-9, 1.0]
    MESSAGE = ("smallest eigenvalue gap 1.000e-09 is below gap_tol 3.000e-08; "
               "eigenvalues must be pairwise distinct")

    @staticmethod
    def _call(entry, a0):
        from kvmflow import cli, flow, spectral

        if entry == "integrate":
            return flow.integrate(a0)
        if entry == "spectrum_zero_diag":
            return spectral.spectrum_zero_diag(a0)
        args = cli.build_parser().parse_args([entry, "--offdiag=" + ",".join(map(str, a0))])
        return args.func(args)

    @pytest.mark.parametrize("entry", ["integrate", "spectrum_zero_diag", "verify", "predict"])
    def test_same_class_and_message(self, entry, capsys):
        from kvmflow.errors import DegenerateSpectrum, ValidationFailure

        with pytest.raises(DegenerateSpectrum) as got:
            self._call(entry, self.A0)
        assert isinstance(got.value, ValidationFailure)
        assert str(got.value) == self.MESSAGE
        if entry in ("verify", "predict"):
            assert main([entry, "--offdiag=1,1e-9,1"]) == 1
            assert capsys.readouterr().err == f"kvmflow: error: {self.MESSAGE}\n"
