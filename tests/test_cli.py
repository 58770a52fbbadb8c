import json
from pathlib import Path

import numpy as np
import pytest

from kvmflow import kernels
from kvmflow.cli import main
from kvmflow.errors import DegenerateSpectrum, ValidationFailure
from kvmflow.verify import LIMIT_MATCH

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

    # both inputs have the stable pattern (1,0,2,3 per block): eq_eps decides
    @pytest.mark.parametrize("rule, offdiag, eq_eps", [("zero-entry", "1,0,2,3", "100"),
                                                       ("degenerate", "1,1e-9,1.000000001", "1")])
    def test_stationary_input_notes_why_there_is_no_prediction(self, rule, offdiag, eq_eps,
                                                               capsys):
        # a run that meets the stop rule at t = 0 stops before validation, so
        # the prediction is where the broken hypothesis shows
        assert main(_args("evolve", "--offdiag=" + offdiag, "--eq-eps", eq_eps)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "stationary_input"
        assert summary["predicted_limit"] is None
        why = {"zero-entry": _INPUT_RULES["zero-entry"][1],
               "degenerate": "smallest eigenvalue gap 1.414e-09 does not exceed gap_tol "
                             "2.000e-08; eigenvalues must be pairwise distinct"}[rule]
        assert summary["notes"] == "unavailable: " + why

    def test_run_ends_exactly_on_the_horizon(self, tmp_path, capsys):
        # a step that ends within 1e-14 of the horizon ends on it, and the
        # last recorded time is set to t_max itself
        csv_path = tmp_path / "s.csv"
        assert main(_args("evolve", "--offdiag=5,-6,-2", "--t-max", "1",
                          "--eq-eps", "0", "--out-csv", csv_path)) == 0
        rows = csv_path.read_text().splitlines()[1:]
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

    @pytest.mark.parametrize("command", ["predict", "evolve", "verify"])
    def test_equilibrium_with_a_degenerate_spectrum_is_stationary(self, command, capsys):
        # [1, 0, 1] has the spectrum {-1, -1, 1, 1}, but an equilibrium needs
        # neither hypothesis: it does not move
        assert main(_args(command, "--offdiag=1,0,1")) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "stationary_input"


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

    def test_input_near_a_saddle_flows_to_the_limit(self, capsys):
        # [3, 0, 1, 0, 2] is an unsorted equilibrium, a saddle: 1e-40 from it
        # the residual is far below eq_eps, but the input is not at rest
        a0 = "--offdiag=3,1e-40,1,1e-40,2"
        assert main(_args("verify", a0)) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "horizon_reached"
        assert main(_args("verify", a0, "--t-max", "100")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "converged"
        dev = np.abs(np.array(summary["final_offdiag"]) - [1.0, 0.0, 2.0, 0.0, 3.0]).max()
        assert dev <= LIMIT_MATCH * np.linalg.norm([3.0, 1e-40, 1.0, 1e-40, 2.0])

    def test_zero_entry_flows_per_block(self, capsys):
        # the zero a_4 splits 3,1e-40,1,0,2 into the blocks 3,1e-40,1 (a
        # saddle of its own) and 2, each of which flows to its own limit
        a0 = "--offdiag=3,1e-40,1,0,2"
        assert main(_args("verify", a0)) == 1
        assert "a_4 is zero" in capsys.readouterr().err
        assert main(_args("verify", a0, "--strict", "false", "--t-max", "100")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "converged"
        dev = np.abs(np.array(summary["final_offdiag"]) - [1.0, 0.0, 3.0, 0.0, 2.0]).max()
        assert dev <= LIMIT_MATCH * np.linalg.norm([3.0, 1e-40, 1.0, 0.0, 2.0])

    @pytest.mark.parametrize("offdiag", ["1,1e-40,2,1e-40,3", "1.26,0,-7.96", "1,0,1",
                                         "0.7", ""])
    def test_stable_equilibria_are_stationary(self, offdiag, capsys):
        assert main(_args("verify", "--offdiag=" + offdiag)) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "stationary_input"

    @pytest.mark.parametrize("name", ["ex1.json", "ex2.json", "ex3.json"])
    def test_shipped_fixtures_verify_clean(self, name):
        assert main(_args("verify", "--input", FIXTURES / name)) == 0


def _strict_loads(text):
    def reject(name):
        raise ValueError(f"non-finite JSON constant {name}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    def test_verify_without_a_magnitude_gap_writes_null(self, capsys):
        # n = 3 has one live slot, so the sorted-magnitudes check has no gap
        assert main(_args("verify", "--offdiag=1,2")) == 0
        summary = _strict_loads(capsys.readouterr().out)
        (gap,) = [c for c in summary["checks"]
                  if c["name"] == "sorted_magnitudes_min_gap"]
        assert gap["measured"] is None and gap["passed"] is True

    def test_spectrum_of_a_1x1_matrix_writes_null(self, capsys):
        assert main(_args("spectrum", "--offdiag=")) == 0
        summary = _strict_loads(capsys.readouterr().out)
        assert summary["spectrum"] == [0.0]
        assert summary["gap_min"] is None


class TestSpectrum:
    def test_offdiag_input(self, capsys):
        assert main(_args("spectrum", "--offdiag=5,-6,-2")) == 0
        summary = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(np.abs(summary["spectrum"]),
                                   [7.96, 1.26, 1.26, 7.96], atol=0.005)
        assert summary["paired"] is True

    @pytest.mark.parametrize("offdiag, values", [("3,4", [-5.0, 0.0, 5.0]),
                                                 ("1", [-1.0, 1.0])])
    def test_exact_spectrum_prints_exactly(self, offdiag, values, capsys):
        assert main(_args("spectrum", "--offdiag=" + offdiag)) == 0
        assert json.loads(capsys.readouterr().out)["spectrum"] == values

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

    def test_zero_matrix_is_degenerate(self, capsys):
        # ||T||_F = 0, so gap_tol is 0, and the gap 0 does not exceed it
        assert main(_args("equilibria", "--offdiag=0,0")) == 1
        assert capsys.readouterr().err == (
            "kvmflow: error: smallest eigenvalue gap 0.000e+00 does not exceed "
            "gap_tol 0.000e+00; eigenvalues must be pairwise distinct\n")


class TestEvolveSym:
    def test_experimental_run(self, sym_file, tmp_path, capsys):
        csv_path = tmp_path / "diag.csv"
        assert main(_args("evolve-sym", "--input", sym_file, "--t-max", "2",
                          "--out-csv", csv_path)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "experimental-symmetric"
        assert "experimental" in summary["notes"]
        assert "final_blocks" in summary
        assert [c["name"] for c in summary["checks"]] == [
            "spectral_drift", "frobenius_conservation", "lyapunov_monotone",
            "reference_spectrum"]
        assert summary["overall"] is True
        assert csv_path.read_text().splitlines()[0] == "t,f,k_norm,spec_drift"

    def test_a_field_that_is_not_isospectral_exits_2(self, tmp_path, monkeypatch, capsys):
        # the dense field plus 1e-6 H moves the spectrum and ||H||_F; the
        # seeded 8x8 at t_max 2 drifts about 200x the bound
        H = np.random.default_rng(1).normal(size=(8, 8))
        path = tmp_path / "sym8.json"
        path.write_text(json.dumps({"symmetric": (0.5 * (H + H.T)).tolist()}))
        argv = _args("evolve-sym", "--input", path, "--t-max", "2")
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["overall"] is True

        field = kernels._dense_field

        def not_isospectral(n):
            rhs, resid2 = field(n)
            return (lambda H, out=None: np.add(rhs(H), 1e-6 * H, out=out)), resid2

        monkeypatch.setattr(kernels, "_dense_field", not_isospectral)
        assert main(argv) == 2
        summary = json.loads(capsys.readouterr().out)
        assert summary["overall"] is False
        assert {c["name"] for c in summary["checks"] if not c["passed"]} == {
            "spectral_drift", "frobenius_conservation"}

    def test_diagonal_matrix_is_stationary(self, tmp_path, capsys):
        path = tmp_path / "diag.json"
        path.write_text('{"symmetric": [[3, 0, 0], [0, -1, 0], [0, 0, 2]]}')
        assert main(_args("evolve-sym", "--input", path)) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "stationary_input"
        assert [(c["name"], c["passed"]) for c in summary["checks"]] == [
            ("stationary_residual", True)]
        assert summary["overall"] is True

    def test_tiny_matrix_is_not_stationary(self, sym_file, tmp_path, capsys):
        # the run is normalised: sym.json * 1e-100 at t_max * 1e200 repeats
        # the unscaled run instead of reading as an equilibrium
        assert main(_args("evolve-sym", "--input", sym_file, "--t-max", "2")) == 0
        plain = json.loads(capsys.readouterr().out)
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps({"symmetric": [
            [1e-100 * x for x in row] for row in plain["input"]["symmetric"]]}))
        assert main(_args("evolve-sym", "--input", tiny, "--t-max", "2e200")) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == plain["status"] != "stationary_input"
        assert summary["final_blocks"] == plain["final_blocks"]

    def test_asymmetric_tiny_matrix_rejected(self, tmp_path, capsys):
        path = tmp_path / "asym.json"
        path.write_text('{"symmetric": [[0, 1e-100, 0], [3e-100, 0, 1e-100], '
                        '[0, 1e-100, 0]]}')
        assert main(_args("spectrum", "--input", path)) == 1
        assert "not symmetric" in capsys.readouterr().err

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

    @pytest.mark.parametrize("tokens, flag", [
        (["evolve", "--offdiag=5,-6,-2", "--method", "rk4"], "--method"),
        (["verify", "--offdiag=5,-6,-2", "--method", "rk45"], "--method"),
        (["verify", "--offdiag=5,-6,-2", "--dt", "1e-3"], "--dt"),
        (["evolve-sym", "--dt", "0.5"], "--dt"),
        (["evolve", "--offdiag=5,-6,-2", "--abs-tol", "1e-8"], "--abs-tol"),
        (["evolve", "--offdiag=5,-6,-2", "--rel-tol", "1e-8"], "--rel-tol"),
        (["evolve", "--offdiag=5,-6,-2", "--record-stride", "5"], "--record-stride"),
        (["verify", "--offdiag=5,-6,-2", "--abs-tol", "1e-8"], "--abs-tol"),
        (["verify", "--offdiag=5,-6,-2", "--rel-tol", "1e-8"], "--rel-tol"),
        (["verify", "--offdiag=5,-6,-2", "--record-stride", "5"], "--record-stride"),
        (["evolve-sym", "--abs-tol", "1e-8"], "--abs-tol"),
        (["evolve-sym", "--rel-tol", "1e-8"], "--rel-tol"),
        (["evolve-sym", "--record-stride", "5"], "--record-stride"),
    ], ids=["evolve-method", "verify-method", "verify-dt", "evolve-sym-dt",
            "evolve-abs-tol", "evolve-rel-tol", "evolve-record-stride",
            "verify-abs-tol", "verify-rel-tol", "verify-record-stride",
            "evolve-sym-abs-tol", "evolve-sym-rel-tol", "evolve-sym-record-stride"])
    def test_removed_step_options_are_usage_errors(self, tokens, flag, sym_file,
                                                   capsys):
        if tokens[0] == "evolve-sym":
            tokens = tokens + ["--input", sym_file]
        assert main(_args(*tokens)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and f"unrecognized arguments: {flag}" in err

    @pytest.mark.filterwarnings("error")  # a numpy warning would add lines
    @pytest.mark.parametrize("tokens", [
        ["verify", "--offdiag=1e200,1e200,1e200"],
        ["verify", "--offdiag=1e200,1e200,1e200", "--eq-eps", "1"],
        ["equilibria", "--input", FIXTURES / "ex3.json"],
        ["spectrum", "--offdiag=1e200,1e200,1e200"],
        ["predict", "--offdiag=1e200,1e200,1e200"],
        ["verify", "--offdiag=5,-6,-2", "--tol", "inf"],
        ["verify", "--offdiag=5,-6,-2", "--eq-eps", "inf"],
    ], ids=["verify-overflow", "verify-overflow-eq-eps", "equilibria-too-many",
            "spectrum-overflow", "predict-overflow", "tol-inf", "eq-eps-inf"])
    def test_out_of_range_run_is_one_line_error(self, tokens, capsys):
        assert main(_args(*tokens)) == 1
        err = capsys.readouterr().err
        assert err.startswith("kvmflow: error: ") and err.count("\n") == 1

    def test_bad_inline_entry_is_one_line_error(self, capsys):
        assert main(_args("verify", "--offdiag=5,x")) == 1
        err = capsys.readouterr().err
        assert err == "kvmflow: error: --offdiag entry 'x' is not a number\n"

    @pytest.mark.parametrize("offdiag,token", [("nan,1", "nan"), ("1,-inf", "-inf")])
    @pytest.mark.parametrize("cmd", ["spectrum", "predict", "verify", "evolve", "equilibria"])
    def test_non_finite_inline_entry_is_one_line_error(self, capsys, cmd, offdiag, token):
        assert main(_args(cmd, "--offdiag=" + offdiag)) == 1
        err = capsys.readouterr().err
        idx = offdiag.split(",").index(token) + 1
        assert err == f"kvmflow: error: off-diagonal entry a_{idx} is not finite\n"

    def test_prediction_on_a_zero_entry_is_one_line_error(self, capsys):
        assert main(_args("predict", "--offdiag=1,0,2,3")) == 1
        err = capsys.readouterr().err
        assert err == ("kvmflow: error: off-diagonal entry a_2 is zero; "
                       "the limit theorem needs every entry nonzero\n")

    def test_strict_takes_a_boolean(self, capsys):
        assert main(_args("evolve", "--offdiag=5,-6,-2", "--strict", "maybe")) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "expected true/false, got 'maybe'" in err
        assert main(_args("evolve", "--offdiag=5,-6,-2", "--t-max", "1",
                          "--strict", "true")) == 0
        assert json.loads(capsys.readouterr().out)["predicted_limit"] is not None

    def test_horizon_overflow_is_one_line_error(self, capsys):
        assert main(_args("verify", "--offdiag=1e10,2e10,3e10", "--t-max", "1e300")) == 1
        err = capsys.readouterr().err
        assert err == "kvmflow: error: t_max * ||a0||^2 = inf is out of range\n"


class TestDegenerateSpectrum:
    """The library and the CLI reject a degenerate spectrum with one error."""

    A0 = [1.0, 1e-9, 1.0]
    MESSAGE = ("smallest eigenvalue gap 1.000e-09 does not exceed gap_tol 2.000e-08; "
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
        with pytest.raises(DegenerateSpectrum) as got:
            self._call(entry, self.A0)
        assert isinstance(got.value, ValidationFailure)
        assert str(got.value) == self.MESSAGE
        if entry in ("verify", "predict"):
            assert main([entry, "--offdiag=1,1e-9,1"]) == 1
            assert capsys.readouterr().err == f"kvmflow: error: {self.MESSAGE}\n"

    def test_small_lambda_1_with_even_n_is_distinct(self, capsys):
        # lambda_1 = 1.00e-8 is below gap_tol = 1.41e-8, the gap 2 lambda_1
        # between -lambda_1 and lambda_1 is not: the limit theorem applies
        from kvmflow import spectral

        spec = spectral.eigenvalues_tridiagonal(np.zeros(4), [1e-4, 1.0, 1e-4])
        lambda_1 = spec.positive_magnitudes[0]
        assert lambda_1 < spec.gap_tol < 2.0 * lambda_1 == spec.gap_min
        summaries = {}
        for command, *options in (["predict"], ["equilibria"], ["evolve"],
                                  ["verify", "--t-max", "60"]):
            assert main([command, "--offdiag=1e-4,1,1e-4", *options]) == 0
            summaries[command] = json.loads(capsys.readouterr().out)
        assert summaries["evolve"]["notes"] is None
        assert summaries["verify"]["status"] == "converged"
        assert summaries["verify"]["overall"] is True
        predicted = summaries["predict"]["predicted_limit"]
        assert summaries["evolve"]["predicted_limit"] == predicted
        assert summaries["verify"]["predicted_limit"] == predicted


_OFFDIAG_COMMANDS = ["spectrum", "predict", "verify", "evolve", "equilibria"]


def _offdiag_entries(commands, library):
    return [f"{kind}:{c}" for kind in ("inline", "json") for c in commands] + library


_FINITE_ENTRIES = _offdiag_entries(_OFFDIAG_COMMANDS,
                                   ["parse_input", "integrate", "spectrum_zero_diag"])
_DENSE_ENTRIES = ["json:evolve-sym", "json:spectrum", "parse_input", "integrate_dense"]
# rule -> (class, message, inline --offdiag value or None, JSON document,
#          library input, entries); the rules from zero-entry on are the
# limit theorem's hypotheses, which spectrum does not need and equilibria
# needs only for the spectrum
_INPUT_RULES = {
    "offdiag-first": (ValidationFailure, "off-diagonal entry a_1 is not finite", "inf,1",
                      '{"n": 3, "offdiag": [1e999, 1]}', [np.inf, 1.0], _FINITE_ENTRIES),
    "offdiag-last": (ValidationFailure, "off-diagonal entry a_2 is not finite", "1,-inf",
                     '{"n": 3, "offdiag": [1, -1e999]}', [1.0, -np.inf], _FINITE_ENTRIES),
    "asymmetric": (ValidationFailure, "matrix is not symmetric (defect 1.000e+00)", None,
                   '{"symmetric": [[0, 1], [2, 0]]}', [[0.0, 1.0], [2.0, 0.0]],
                   _DENSE_ENTRIES),
    "matrix-non-finite": (ValidationFailure, "matrix entry (1, 2) is not finite", None,
                          '{"symmetric": [[0, 1e999], [1, 0]]}', [[0.0, np.inf], [1.0, 0.0]],
                          _DENSE_ENTRIES),
    "zero-entry": (ValidationFailure,
                   "off-diagonal entry a_2 is zero; the limit theorem needs every entry nonzero",
                   "1,0,2,3", '{"n": 5, "offdiag": [1, 0, 2, 3]}', [1.0, 0.0, 2.0, 3.0],
                   _offdiag_entries(["predict", "verify", "evolve"],
                                    ["integrate", "predict_limit"])),
    "degenerate": (DegenerateSpectrum,
                   "smallest eigenvalue gap 1.000e-09 does not exceed gap_tol 2.000e-08; "
                   "eigenvalues must be pairwise distinct",
                   "1,1e-9,1", '{"n": 4, "offdiag": [1, 1e-9, 1]}', [1.0, 1e-9, 1.0],
                   _offdiag_entries(["predict", "verify", "evolve", "equilibria"],
                                    ["integrate", "spectrum_zero_diag", "predict_limit"])),
    # breaks both hypotheses (two 3x3 blocks share their spectrum): every
    # entry checks nonzero entries first
    "both-hypotheses": (ValidationFailure,
                        "off-diagonal entry a_3 is zero; the limit theorem needs every entry "
                        "nonzero", "1,1,0,1,1", '{"n": 6, "offdiag": [1, 1, 0, 1, 1]}',
                        [1.0, 1.0, 0.0, 1.0, 1.0],
                        _offdiag_entries(["predict", "verify", "evolve"],
                                         ["integrate", "predict_limit"])),
}


def _input_rule_cases():
    for rule, (*_, entries) in _INPUT_RULES.items():
        for entry in entries:
            yield pytest.param(rule, entry, id=f"{rule}-{entry.replace(':', '-')}")


class TestInputRules:
    """Each input rule is checked once: every entry raises the rule's class
    (ValidationFailure, or its subclass DegenerateSpectrum) with the same
    message, and the CLI prints it as one line and exits 1."""

    @pytest.mark.parametrize("offdiag", ["5,,-6,-2", "5,-6,-2,", ",5,-6,-2", "5, ,-6"])
    @pytest.mark.parametrize("command", _OFFDIAG_COMMANDS)
    def test_empty_inline_token_is_an_error(self, command, offdiag, capsys):
        # the JSON [5,,-6,-2] is a syntax error: no entry is dropped silently
        from kvmflow import cli

        args = cli.build_parser().parse_args([command, "--offdiag=" + offdiag])
        with pytest.raises(ValidationFailure, match="^--offdiag entry '' is not a number$"):
            args.func(args)
        assert main([command, "--offdiag=" + offdiag]) == 1
        assert capsys.readouterr().err == "kvmflow: error: --offdiag entry '' is not a number\n"

    @pytest.mark.parametrize("token", ["1_000", "+1", ".5", "5.", "01", "Infinity", "\u0661"])
    @pytest.mark.parametrize("command", _OFFDIAG_COMMANDS)
    def test_inline_token_outside_json_number_grammar_is_an_error(self, command, token,
                                                                  capsys):
        # float() accepts each of these, the JSON array [token, 2] does not
        assert main([command, f"--offdiag={token},2"]) == 1
        assert capsys.readouterr().err == f"kvmflow: error: --offdiag entry {token!r} is not a number\n"

    def test_inline_tokens_read_as_the_json_numbers(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 5, "offdiag": [-1.5, 1E+2, 2.5e-3, 7]}')
        outputs = []
        for source in (["--offdiag=-1.5, 1E+2,2.5e-3 ,7"], ["--input", str(path)]):
            assert main(["spectrum", *source]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("digits", [400, 5000])
    @pytest.mark.parametrize("command", _OFFDIAG_COMMANDS)
    def test_json_integer_beyond_the_float_range_is_not_finite(self, command, digits,
                                                               tmp_path, capsys):
        # 5000 digits is also past int()'s digit limit
        big = "1" + "0" * digits
        path = tmp_path / "doc.json"
        path.write_text(f'{{"n": 3, "offdiag": [{big}, 1]}}')
        for source in (["--input", str(path)], [f"--offdiag={big},1"]):
            assert main([command, *source]) == 1
            assert capsys.readouterr().err == ("kvmflow: error: off-diagonal entry a_1 "
                                               "is not finite\n")

    @pytest.mark.parametrize("command", [["spectrum"],
                                         ["evolve", "--strict", "false", "--t-max", "1"]])
    def test_json_negative_zero_reads_as_the_inline_token(self, command, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 4, "offdiag": [1, -0, 2]}')
        outputs = []
        for source in (["--offdiag=1,-0,2"], ["--input", str(path)]):
            assert main([*command, *source]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert '"offdiag": [\n      1.0,\n      -0.0,\n' in outputs[1].out

    def test_no_inline_tokens_is_the_empty_offdiag(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text('{"n": 1, "offdiag": []}')
        outputs = []
        for source in (["--offdiag="], ["--input", str(path)]):
            assert main(["spectrum", *source]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("rule, entry", list(_input_rule_cases()))
    def test_same_class_and_message(self, rule, entry, tmp_path, capsys):
        from kvmflow import cli, flow, io, spectral

        cls, message, inline, document, value, _ = _INPUT_RULES[rule]
        kind, _, command = entry.partition(":")
        if kind == "inline":
            tokens = [command, "--offdiag=" + inline]
        elif kind == "json":
            path = tmp_path / "doc.json"
            path.write_text(document)
            tokens = [command, "--input", str(path)]
        library = {"parse_input": lambda: io.parse_input(document),
                   "integrate": lambda: flow.integrate(value),
                   "spectrum_zero_diag": lambda: spectral.spectrum_zero_diag(value),
                   "predict_limit": lambda: spectral.predict_limit(
                       value, spectral.eigenvalues_tridiagonal(np.zeros(len(value) + 1), value)),
                   "integrate_dense": lambda: flow.integrate_dense(value)}
        with pytest.raises(ValidationFailure) as got:
            if command:
                args = cli.build_parser().parse_args(tokens)
                args.func(args)
            else:
                library[entry]()
        assert type(got.value) is cls
        assert str(got.value) == message
        if command:
            assert main(tokens) == 1
            assert capsys.readouterr().err == f"kvmflow: error: {message}\n"
