import dataclasses
import math

import numpy as np
import pytest

from kvmflow import flow, jacobi, kernels, spectral, verify
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
                "reference_spectrum", "equilibrium_reached", "limit_match",
                "limit_zero_slots", "sorted_magnitudes_min_gap"} <= names
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

    def test_reference_is_seeded_and_certified(self, monkeypatch, ex1, ex2, ex3):
        # the 100 first inputs of the benchmark's oracle workload at seed 1
        # (n cycling through 3..12, criterion-4 config), the examples, and
        # five inputs of its seeds 901 and 4 whose drift solves meet a Newton
        # pivot of exactly 0 (a drift row that nearly decouples)
        def criterion_4(a0):
            return IntegratorConfig(t_max=150.0, max_rows=160,
                                    eq_eps=1e-9 * (1 + np.sum(a0 * a0)))

        rng = np.random.default_rng(1)
        runs = [(a, IntegratorConfig()) for a in (ex1, ex2, ex3)]
        while len(runs) < 103:
            n = 3 + (len(runs) - 3) % 10
            a0 = rng.uniform(0.5, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
            sq = np.linalg.eigvalsh(jacobi.embed(a0))[n - n // 2:] ** 2
            gaps = np.diff(np.concatenate([[0.0], sq]) if n % 2 else sq)
            if gaps.min() >= 0.35:
                runs.append((a0, criterion_4(a0)))
        for a0 in ([4.877052080966407, 4.452267940402095, 7.392038134210049,
                    1.2472450264526347, 3.7678904472102097, -6.046072211849956,
                    -9.991417048101406, -2.7621389698580647, 1.7725558276561053,
                    1.7305518444815566],
                   [1.8453128652017294, 0.8033604561403404, 5.722177916349722,
                    -2.088533236702232, 5.193062801121238, -6.969479397842659,
                    -7.066885656874078, -7.7986061512821685, -6.626344116610487,
                    8.741822735108977],
                   [5.131431594365293, -3.8607697724078935, -3.222713869247487,
                    6.938132704533737, 5.252908452768043, 0.9691245115710745,
                    -7.863870260359904, 7.973151489330247, -7.271168311567469,
                    1.1209924861217737],
                   [4.945684510312419, 1.615219179602858, 0.6152036520672073,
                    -6.3015757330189635, -6.817449097928647, -4.452422761389853,
                    2.6417126212277666, -3.0600374198975397, -3.2725289116927287,
                    3.701186260860486, 2.9719807088651184],
                   [-2.4825008280601373, 2.662981236268277, -5.512199421854937,
                    5.2339465115526025, 1.2444658922967662, -9.934569138710069,
                    -8.804190175683173]):
            a0 = np.array(a0)
            runs.append((a0, criterion_4(a0)))
        calls = []

        def count_as(name, module, attr):
            original = getattr(module, attr)

            def counting(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, attr, counting)

        count_as("eigvalsh", np.linalg, "eigvalsh")
        count_as("bisect", kernels, "_bisect")
        for a0, cfg in runs:
            calls.clear()
            assert verify.verify_run(a0, cfg).overall
            assert calls == ["eigvalsh"], a0

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

    # stable-pattern near-equilibria (sorted magnitudes on the live slots,
    # the rest below them) at the last bit of the stationary test: eq_eps is
    # the stored residual c (c k), k the unit residual, which
    # equilibrium_residual reports (the same bits on numpy's AVX-512 and AVX2
    # exp paths), and one bit less is not stationary
    @pytest.mark.parametrize("a0, eq_eps", [
        ([1.0136840010143916e-07, 1.0851725302734132, 2.4879106112960613e-07,
          2.3374286886218107], 9.199663839194104e-07),
        ([4.2650022009584355e-09, 0.023980052798988436, 6.867203840897151e-09,
          0.028291333031591873, 8.984176769298791e-09, 0.041694292383862165],
         7.486593229432131e-10),
        ([0.004993248066756129, 3.594633963601879e-10, 0.006876680085311295,
          2.465028545198887e-10, 0.007976957364033758], 5.669555967630479e-12),
    ])
    def test_stationary_input_passes_its_residual_check(self, a0, eq_eps):
        assert jacobi.equilibrium_residual(a0) == eq_eps
        report = verify.verify_run(a0, IntegratorConfig(eq_eps=eq_eps))
        assert report.meta["status"] == "stationary_input"
        assert [(c.name, c.passed) for c in report.checks] == [
            ("stationary_residual", True)]
        assert report.overall
        below = IntegratorConfig(eq_eps=math.nextafter(eq_eps, 0.0), t_max=1e-3)
        assert flow.integrate(a0, below).status != "stationary_input"

    def test_prediction_and_final_residual_are_the_checked_ones(self, ex1, ex2, ex3):
        # verify_run places the limit without predict_limit's checks, which
        # integrate has made, and reads the residual of the last row alone;
        # both equal the checked prediction and k_norms[-1] bit for bit
        rng = np.random.default_rng(7)
        inputs = [ex1, ex2, ex3] + [rng.uniform(-1.0, 1.0, 2 + i % 10) * 10.0 ** (i % 7 - 3)
                                    for i in range(40)]
        for a0 in inputs:
            report = verify.verify_run(a0)
            traj = flow.integrate(a0)
            want = spectral.predict_limit(a0, traj.spectrum)
            np.testing.assert_array_equal(report.meta["predicted_limit"].view(np.int64),
                                          want.view(np.int64))
            final = next(c for c in report.checks if c.name == "equilibrium_reached")
            assert final.measured.hex() == float(traj.k_norms[-1]).hex()

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


class TestEveryCheckCanFail:
    """Each check of trajectory_checks fails on a trajectory that breaks its
    claim, on either class, so none is a tautology. A sign check would be
    one: states are c sign(x0) exp(rows), so no entry can cross zero; the
    paper's sign claim on the limit is limit_match's, whose prediction
    carries sign(a0)."""

    SHARED = ["spectral_drift", "frobenius_conservation", "lyapunov_monotone",
              "reference_spectrum"]

    @pytest.fixture(params=["offdiag", "dense"])
    def clean(self, request, ex1):
        if request.param == "offdiag":
            return flow.integrate(ex1)
        return flow.integrate_dense(jacobi.embed(ex1))

    @staticmethod
    def _failing(traj):
        return {c.name for c in verify.trajectory_checks(traj) if not c.passed}

    def test_each_broken_claim_fails_its_check(self, clean):
        assert [c.name for c in verify.trajectory_checks(clean)] == self.SHARED
        assert self._failing(clean) == set()
        shifted = dataclasses.replace(clean.spectrum,
                                      values=clean.spectrum.values + 1e-4 * clean.c)
        broken = {
            "rows x (1 + 1e-6)": dataclasses.replace(clean, rows=clean.rows * (1 + 1e-6)),
            "rows reversed": dataclasses.replace(clean, rows=clean.rows[::-1]),
            "shifted spectrum": dataclasses.replace(clean, spectrum=shifted),
        }
        failing = {name: self._failing(traj) for name, traj in broken.items()}
        assert failing == {
            "rows x (1 + 1e-6)": {"spectral_drift", "frobenius_conservation"},
            "rows reversed": {"lyapunov_monotone"},
            "shifted spectrum": {"spectral_drift", "reference_spectrum"},
        }

    def test_a_flipped_limit_sign_fails_limit_match(self, monkeypatch, ex1):
        def flipped(*args, **kwargs):
            traj = flow.integrate(*args, **kwargs)
            live = np.flatnonzero(spectral.limit_slots(traj.n))[0]
            traj.states[-1, live] *= -1.0  # the cached states final_state reads
            return traj

        monkeypatch.setattr(verify, "integrate", flipped)
        report = verify.verify_run(ex1)
        assert {c.name for c in report.checks if not c.passed} == {"limit_match"}


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

    def test_zero_deviations_read_zero(self):
        # n = 1: H is the zero matrix, whose norms are 0, and every deviation
        # is exactly 0, so every measure reads 0 rather than 0 / 0
        report = verify.verify_identities(1, trials=20, seed=5)
        assert [c.measured for c in report.checks] == [0.0] * 5

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
