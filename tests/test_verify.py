import dataclasses

import numpy as np
import pytest

from kvmflow import flow, spectral, verify
from kvmflow.errors import ValidationFailure
from kvmflow.flow import IntegratorConfig
from kvmflow.io import build_summary


class TestVerifyRun:
    def test_example1_all_checks_pass(self, ex1):
        report = verify.verify_run(ex1)
        assert report.overall
        assert report.meta["status"] == "converged"
        names = {c.name for c in report.checks}
        assert {"spectral_drift", "frobenius_conservation", "lyapunov_monotone",
                "sign_preservation", "reference_spectrum", "equilibrium_reached",
                "limit_match", "limit_zero_slots", "sorted_magnitudes_min_gap"} <= names
        limit = next(c for c in report.checks if c.name == "limit_match")
        assert limit.measured < 0.01

    def test_example2_all_checks_pass(self, ex2):
        report = verify.verify_run(ex2)
        assert report.overall

    def test_example3_all_checks_pass(self, ex3):
        # regression gate: the shipped 29x29 fixture passes default tolerances
        report = verify.verify_run(ex3)
        assert report.overall, [c for c in report.checks if not c.passed]
        assert report.meta["status"] in {"converged", "horizon_reached"}

    def test_reuses_the_trajectory_reference_spectrum(self, monkeypatch, ex1):
        solves = []

        def count_as(kind, module, name):
            original = getattr(module, name)

            def counting(*args, **kwargs):
                solves.append(kind)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        count_as("t=0", spectral, "eigenvalues_tridiagonal")
        count_as("t=0", flow, "eigenvalues_tridiagonal")
        count_as("drift", flow, "batch_eigenvalues_zero_diag")
        count_as("drift", verify, "batch_eigenvalues_zero_diag")
        traj = flow.integrate(ex1)
        solves.clear()
        report = verify.verify_run(ex1)
        assert solves == ["t=0", "drift"]
        np.testing.assert_array_equal(report.meta["spectrum"], traj.spectrum.values)

    def test_reference_spectrum_of_another_matrix_fails(self, monkeypatch, ex1):
        def scaled_reference(*args, **kwargs):
            traj = flow.integrate(*args, **kwargs)
            scaled = dataclasses.replace(traj.spectrum,
                                         values=traj.spectrum.values * (1 + 1e-6))
            return dataclasses.replace(traj, spectrum=scaled)

        monkeypatch.setattr(verify, "integrate", scaled_reference)
        report = verify.verify_run(ex1)
        failing = {c.name for c in report.checks if not c.passed}
        assert "reference_spectrum" in failing
        check = next(c for c in report.checks if c.name == "reference_spectrum")
        assert check.measured > 1e3 * check.threshold

    def test_stationary_input_skips_prediction(self):
        report = verify.verify_run([1.26, 0.0, -7.96])
        assert report.meta["status"] == "stationary_input"
        assert "skipped" in report.meta["notes"]
        assert report.overall
        assert all("limit" not in c.name for c in report.checks)

    def test_short_horizon_fails_limit_match(self, ex2):
        report = verify.verify_run(ex2, IntegratorConfig(t_max=1e-3))
        assert not report.overall
        failing = {c.name for c in report.checks if not c.passed}
        assert "limit_match" in failing

    def test_non_strict_skips_prediction_checks(self):
        report = verify.verify_run([1.0, 0.0, 0.5, 2.0],
                                   IntegratorConfig(t_max=50.0), strict=False)
        assert report.meta["notes"] == "skipped (strict=False)"
        assert all("limit" not in c.name for c in report.checks)
        assert report.overall

    def test_report_dict_is_plain_json_types(self, ex1):
        report = verify.verify_run(ex1)
        d = build_summary(checks=report.checks, overall=report.overall, **report.meta)
        assert d["overall"] is True
        for c in d["checks"]:
            assert isinstance(c["measured"], float)
            assert isinstance(c["passed"], bool)


class TestVerifyIdentities:
    @pytest.mark.parametrize("n", [1, 2, 4, 9, 16])
    def test_all_identities_pass(self, n):
        report = verify.verify_identities(n, trials=50, seed=123)
        assert report.overall, [c for c in report.checks if not c.passed]

    def test_names_cover_the_five_identities(self):
        report = verify.verify_identities(4, trials=5, seed=0)
        assert [c.name for c in report.checks] == [
            "commutator_matches_quadratic_map",
            "rhs_dense_vs_componentwise",
            "nested_bracket_trace_identity",
            "lyapunov_two_forms_agree",
            "trace_swap_under_n",
        ]

    def test_seed_recorded(self):
        report = verify.verify_identities(3, trials=2, seed=99)
        assert report.meta["seed"] == 99

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationFailure):
            verify.verify_identities(0, trials=1)


class TestVerifyEquilibriumCounts:
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 6), (6, 6), (7, 24)])
    def test_formula_counts(self, n, expected):
        report = verify.verify_equilibrium_counts(n)
        assert report.overall
        assert report.meta["count_formula"] == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_brute_force_cross_check_included(self, n):
        report = verify.verify_equilibrium_counts(n)
        names = [c.name for c in report.checks]
        assert "signed_enumeration_matches_brute_force" in names
        assert report.overall

    def test_range_validated(self):
        with pytest.raises(ValidationFailure):
            verify.verify_equilibrium_counts(9)
