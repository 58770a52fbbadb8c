import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvmflow import flow, jacobi, spectral
from kvmflow.errors import (
    DegenerateSpectrum,
    EquilibriumInput,
    NonConvergence,
    ValidationFailure,
)
from kvmflow.flow import IntegratorConfig
from kvmflow.verify import brute_force_equilibria

from conftest import EX3
from oracles import closed_form_eigenvalues

EX1_QUARTIC_ROOTS = np.sort([
    -math.sqrt((65 + math.sqrt(3825)) / 2),
    -math.sqrt((65 - math.sqrt(3825)) / 2),
    math.sqrt((65 - math.sqrt(3825)) / 2),
    math.sqrt((65 + math.sqrt(3825)) / 2),
])


class TestEigenvaluesTridiagonal:
    def test_2x2_antidiagonal(self):
        spec = spectral.eigenvalues_tridiagonal([0.0, 0.0], [1.0])
        np.testing.assert_allclose(spec.values, [-1.0, 1.0], atol=1e-12)

    def test_example1_quartic_roots(self):
        spec = spectral.eigenvalues_tridiagonal(np.zeros(4), [5.0, -6.0, -2.0])
        np.testing.assert_allclose(spec.values, EX1_QUARTIC_ROOTS, atol=1e-10)

    def test_1x1(self):
        spec = spectral.eigenvalues_tridiagonal([4.5], [])
        np.testing.assert_allclose(spec.values, [4.5], atol=1e-12)
        assert spec.gap_min == math.inf

    def test_length_mismatch(self):
        with pytest.raises(ValidationFailure,
                           match="offdiag length 2 does not match diag length 2"):
            spectral.eigenvalues_tridiagonal([1.0, 2.0], [1.0, 2.0])

    def test_zero_matrix_has_exact_zero_eigenvalues(self):
        # ||T||_F = 0: seeded or cold, the values are exact zeros; the cold
        # bracket's pad is relative to its Gershgorin bound, here 0
        seeded = spectral.eigenvalues_tridiagonal([0.0, 0.0], [0.0]).values
        assert _bits(seeded) == _bits([-0.0, 0.0])
        assert _bits(_cold([0.0, 0.0], [0.0])) == _bits([-0.0, 0.0])

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValidationFailure, match="matrix dimension must be at least 1"):
            spectral.eigenvalues_tridiagonal([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("idx", [1, 3])
    def test_non_finite_diagonal_names_the_entry(self, bad, idx):
        d = np.zeros(3)
        d[idx - 1] = bad
        with pytest.raises(ValidationFailure) as got:
            spectral.eigenvalues_tridiagonal(d, [1.0, 1.0])
        assert str(got.value) == f"diagonal entry d_{idx} is not finite"

    def test_values_scale_with_the_input(self, ex1):
        # no absolute tolerance: eigenvalues of size 1e-60 keep their digits
        d = np.zeros(4)
        np.testing.assert_allclose(
            spectral.eigenvalues_tridiagonal(d, 5e-60 * ex1).values,
            5e-60 * spectral.eigenvalues_tridiagonal(d, ex1).values, rtol=1e-9, atol=0)

    def test_flow_limit_carries_the_largest_eigenvalue(self):
        # the spectrum of [1, 1] in closed form; the flow's limit carries its
        # positive eigenvalue
        a = [1.0, 1.0]
        values = spectral.eigenvalues_tridiagonal(np.zeros(3), a).values
        np.testing.assert_allclose(values, [-math.sqrt(2), 0, math.sqrt(2)], atol=1e-9)
        limit = flow.integrate(a, IntegratorConfig(t_max=100.0)).final_state
        assert np.abs(np.sort(np.abs(limit)) - [0.0, values[-1]]).max() <= 1e-6

    def test_matches_closed_form_small(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 5))
            d = rng.uniform(-10, 10, n)
            e = rng.uniform(-10, 10, max(n - 1, 0))
            spec = spectral.eigenvalues_tridiagonal(d, e)
            oracle = closed_form_eigenvalues(d, e)
            scale = 1 + math.sqrt(float(np.sum(d * d) + 2 * np.sum(e * e)))
            assert np.abs(spec.values - oracle).max() <= 1e-10 * scale

    def test_repeated_eigenvalues_handled(self):
        # decoupled identical blocks: eigenvalues {-1, -1, 1, 1}
        spec = spectral.eigenvalues_tridiagonal(np.zeros(4), [1.0, 0.0, 1.0])
        np.testing.assert_allclose(spec.values, [-1, -1, 1, 1], atol=1e-10)


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _cold(d, e):
    """eigenvalues_tridiagonal's values with no seed: Sturm bisection alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_SEED_MAX_N", 0)
        return spectral.eigenvalues_tridiagonal(d, e).values


def _eig_tol(d, e):
    """The tolerance eigenvalues_tridiagonal solves to, in the input's units:
    EIG_TOL * ||T||_F, and EIG_TOL for the zero matrix."""
    d, e = np.asarray(d, dtype=np.float64), np.asarray(e, dtype=np.float64)
    unit = float(np.abs(np.concatenate([d, e])).max(initial=0.0)) or 1.0
    scale = math.sqrt(float(np.sum((d / unit) ** 2) + 2.0 * np.sum((e / unit) ** 2)))
    return unit * spectral.EIG_TOL * max(scale, 1.0)


_DIAGONAL_CASE = np.random.default_rng(19).uniform(-10, 10, 23)
_SEED_CASES = {
    "ex3": (np.zeros(EX3.size + 1), EX3),
    "diagonal": (_DIAGONAL_CASE[:12], _DIAGONAL_CASE[12:]),
    "repeated": (np.zeros(6), np.array([1.0, 2.0, 0.0, 1.0, 2.0])),
}


class TestLapackSeed:
    """eigenvalues_tridiagonal seeds its Sturm solve with LAPACK's values.
    A seed that is not certified, that LAPACK fails to give, or that is not
    built above _SEED_MAX_N leaves bisection's bits."""

    @pytest.mark.parametrize("case", list(_SEED_CASES))
    def test_shifted_seed_gives_the_cold_bits(self, case, monkeypatch):
        d, e = _SEED_CASES[case]
        cold = _cold(d, e)
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda t: eigvalsh(t) + 1e-3)
        assert _bits(spectral.eigenvalues_tridiagonal(d, e).values) == _bits(cold)

    @pytest.mark.parametrize("case", list(_SEED_CASES))
    def test_failed_seed_gives_the_cold_bits(self, case, monkeypatch):
        d, e = _SEED_CASES[case]
        cold = _cold(d, e)

        def no_convergence(t):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
        assert _bits(spectral.eigenvalues_tridiagonal(d, e).values) == _bits(cold)

    def test_no_seed_above_the_size_bound(self, monkeypatch):
        n = spectral._SEED_MAX_N + 1
        e = np.random.default_rng(20).uniform(0.5, 2.0, n - 1)
        lapack = np.linalg.eigvalsh(jacobi.embed(e))
        cold = _cold(np.zeros(n), e)

        def no_seed(t):
            raise AssertionError(f"built the dense {t.shape} seed")

        monkeypatch.setattr(np.linalg, "eigvalsh", no_seed)
        values = spectral.eigenvalues_tridiagonal(np.zeros(n), e).values
        assert _bits(values) == _bits(cold)
        assert np.abs(values - lapack).max() <= _eig_tol(np.zeros(n), e)

    def test_seed_up_to_the_size_bound(self, monkeypatch):
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counted(t):
            sizes.append(t.shape[0])
            return eigvalsh(t)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(spectral, "_SEED_MAX_N", 5)
        for n in (1, 5, 6):
            spectral.eigenvalues_tridiagonal(np.arange(n, dtype=float), np.ones(n - 1))
        assert sizes == [1, 5]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
               st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
               st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1))),
           st.booleans(), st.floats(-100.0, 100.0))
    def test_seeded_values_are_within_tol(self, entries, zero_diag, exponent):
        d, e = (np.array(x, dtype=np.float64) * 10.0 ** exponent for x in entries)
        if zero_diag:
            d[:] = 0.0
        tol = _eig_tol(d, e)
        values = spectral.eigenvalues_tridiagonal(d, e).values
        # eigh, not eigvalsh: eigvalsh squares e, and a square that is
        # subnormal against the largest entry gives it wrong values
        lapack = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[0]
        assert np.abs(values - lapack).max() <= tol
        assert np.abs(values - _cold(d, e)).max() <= 2.0 * tol
        if zero_diag:
            np.testing.assert_array_equal(values, -values[::-1])


class TestSpectrumZeroDiag:
    def test_known_4x4_two_decimals(self, ex1):
        spec = spectral.spectrum_zero_diag(ex1)
        np.testing.assert_allclose(np.abs(spec.values), [7.96, 1.26, 1.26, 7.96],
                                   atol=0.005)
        assert spec.paired

    def test_known_10x10_two_decimals(self, ex2):
        spec = spectral.spectrum_zero_diag(ex2)
        mags = spec.positive_magnitudes
        np.testing.assert_allclose(mags, [0.21, 2.71, 10.48, 12.34, 14.36], atol=0.005)

    def test_3x3_closed_form(self):
        # the solver's tolerance is 1e-12 * ||T||_F
        spec = spectral.spectrum_zero_diag([1.0, 1.0])
        np.testing.assert_allclose(spec.values, [-math.sqrt(2), 0.0, math.sqrt(2)],
                                   atol=1e-11)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            spectral.spectrum_zero_diag([1.0, 0.0, 1.0])

    def test_all_zero_spectrum_is_degenerate(self):
        # gap_tol is 1e-8 * ||T||_F = 0, and the gap 0 does not exceed it
        message = ("^smallest eigenvalue gap 0.000e[+]00 does not exceed gap_tol "
                   "0.000e[+]00; eigenvalues must be pairwise distinct$")
        with pytest.raises(DegenerateSpectrum, match=message):
            spectral.spectrum_zero_diag([0.0, 0.0])
        with pytest.raises(DegenerateSpectrum, match=message):
            spectral.predict_limit([1.0, 1.0, 1.0], spectral.make_spectrum(np.zeros(4)))

    @given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=0, max_size=15))
    def test_pairing_is_structural(self, entries):
        a = np.array(entries, dtype=np.float64)
        # the solve mirrors its half spectrum, so the pairing is exact
        spec = spectral.eigenvalues_tridiagonal(np.zeros(a.size + 1), a)
        assert spectral.pairing_defect(spec.values) == 0.0

    def test_odd_n_single_zero_eigenvalue(self):
        spec = spectral.spectrum_zero_diag([2.0, 3.0, 1.0, 4.0])
        assert spec.n == 5
        assert np.sum(np.abs(spec.values) <= spec.pair_tol) == 1

    def test_1x1_is_exactly_zero(self):
        spec = spectral.spectrum_zero_diag([])
        assert spec.values.tolist() == [0.0]

    def test_odd_n_middle_eigenvalue_is_exactly_zero(self, ex3):
        for a in ([1.0, 1.0], [2.0, 3.0, 1.0, 4.0], ex3):
            spec = spectral.spectrum_zero_diag(a)
            assert spec.n % 2 == 1
            assert spec.values[spec.n // 2] == 0.0
            np.testing.assert_array_equal(spec.values, -spec.values[::-1])

    @pytest.mark.filterwarnings("error")  # the overflow is reported, not warned
    def test_overflowing_input_raises(self):
        with pytest.raises(ValidationFailure, match="out of range"):
            spectral.spectrum_zero_diag([1e200, 1e200, 1e200])
        with pytest.raises(ValidationFailure, match="out of range"):
            spectral.eigenvalues_tridiagonal([1e308, 1e308], [1e308])
        with pytest.raises(ValidationFailure, match="out of range"):
            spectral.batch_eigenvalues_zero_diag(np.ones((2, 3)), np.inf)
        with pytest.raises(ValidationFailure, match="out of range"):
            spectral.batch_eigenvalues_zero_diag(np.full((2, 3), 1e200), 1e-3)
        with pytest.raises(ValidationFailure, match="out of range"):
            spectral.eigenvalues_tridiagonal(np.zeros(3), [1e200, 1e200])

    def test_unreachable_tolerance_raises(self):
        # no bracket around an eigenvalue near 1 shrinks to 2e-300
        rows = np.array([[5.0, -6.0, -2.0], [1.0, 2.0, 3.0]])
        with pytest.raises(NonConvergence, match="failed to shrink"):
            spectral.batch_eigenvalues_zero_diag(rows, 1e-300)


class TestPredictLimit:
    def test_example1(self, ex1):
        spec = spectral.spectrum_zero_diag(ex1)
        got = spectral.predict_limit(ex1, spec)
        np.testing.assert_allclose(got, [1.26, 0.0, -7.96], atol=0.005)

    def test_example2(self, ex2):
        spec = spectral.spectrum_zero_diag(ex2)
        got = spectral.predict_limit(ex2, spec)
        np.testing.assert_allclose(
            got, [-0.21, 0, 2.71, 0, -10.48, 0, 12.34, 0, 14.36], atol=0.005)

    def test_example3(self, ex3):
        spec = spectral.spectrum_zero_diag(ex3)
        got = spectral.predict_limit(ex3, spec)
        expected = [0, 2.81, 0, 2.98, 0, 4.17, 0, 4.66, 0, 4.84, 0, -6.26, 0,
                    9.29, 0, -10.84, 0, 11.53, 0, 11.83, 0, 12.48, 0, 17.11, 0,
                    17.98, 0, -18.85]
        np.testing.assert_allclose(got, expected, atol=0.005)

    def test_zero_entry_rejected(self):
        spec = spectral.eigenvalues_tridiagonal(np.zeros(5), [1.0, 0.0, 0.5, 2.0])
        with pytest.raises(ValidationFailure, match="^off-diagonal entry a_2 is zero; "):
            spectral.predict_limit([1.0, 0.0, 0.5, 2.0], spec)

    def test_equilibrium_rejected(self):
        spec = spectral.spectrum_zero_diag([3.0])
        with pytest.raises(EquilibriumInput):
            spectral.predict_limit([3.0], spec)

    def test_unpaired_spectrum_rejected(self):
        spec = spectral.make_spectrum([1.0, 2.0, 3.0])
        with pytest.raises(ValidationFailure, match=r"spectrum is not \(\+/-\)-paired"):
            spectral.predict_limit([1.0, 1.0], spec)

    def test_degenerate_magnitudes_rejected(self):
        spec = spectral.make_spectrum([-1.0, -1.0 + 1e-12, 1.0 - 1e-12, 1.0])
        with pytest.raises(DegenerateSpectrum):
            spectral.predict_limit([1.0, 0.5, 1.0], spec)

    def test_an_accepted_spectrum_admits_a_prediction(self):
        # one distinctness rule: for even n the gap across zero is 2 lambda_1,
        # so lambda_1 in (gap_tol / 2, gap_tol] is distinct (3 of these draws)
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = 2 * int(rng.integers(2, 7))
            a = rng.choice([-1.0, 1.0], n - 1) * 10.0 ** rng.uniform(-6, 1, n - 1)
            try:
                spec = spectral.spectrum_zero_diag(a)
            except DegenerateSpectrum:
                continue
            pred = spectral.predict_limit(a, spec)
            np.testing.assert_array_equal(np.abs(pred[::2]), spec.positive_magnitudes)

    def test_prediction_is_an_equilibrium_with_same_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            a = rng.uniform(0.5, 10, n - 1) * rng.choice([-1.0, 1.0], n - 1)
            try:
                spec = spectral.spectrum_zero_diag(a)
                pred = spectral.predict_limit(a, spec)
            except DegenerateSpectrum:
                continue
            assert jacobi.equilibrium_residual(pred) == 0.0
            pred_spec = spectral.eigenvalues_tridiagonal(np.zeros(n), pred)
            assert np.abs(pred_spec.values - spec.values).max() <= spec.pair_tol
            live = pred[pred != 0.0]
            assert np.all(np.diff(np.abs(live)) > 0)


class TestEnumerateEquilibria:
    def _spec(self, values):
        return spectral.make_spectrum(np.array(values, dtype=float))

    def test_n4_permutations_only(self):
        eqset = spectral.enumerate_equilibria(self._spec([-2, -1, 1, 2]),
                                              include_signs=False)
        assert eqset.count_formula == 2
        keys = {tuple(p) for p in eqset.points}
        assert keys == {(1.0, 0.0, 2.0), (2.0, 0.0, 1.0)}

    def test_n4_with_signs(self):
        eqset = spectral.enumerate_equilibria(self._spec([-2, -1, 1, 2]))
        assert len(eqset.points) == 8
        assert eqset.count_with_signs == 8

    def test_n5_count(self):
        eqset = spectral.enumerate_equilibria(self._spec([-2, -1, 0, 1, 2]),
                                              include_signs=False)
        assert eqset.count_formula == 6
        assert len(eqset.points) == 6

    def test_all_points_are_equilibria_with_matching_spectrum(self):
        spec = spectral.spectrum_zero_diag([5.0, -6.0, -2.0])
        eqset = spectral.enumerate_equilibria(spec)
        for p in eqset.points:
            assert jacobi.equilibrium_residual(p) == 0.0
            got = spectral.eigenvalues_tridiagonal(np.zeros(spec.n), p)
            assert np.abs(got.values - spec.values).max() <= spec.pair_tol

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force(self, n):
        m = n // 2
        values = np.concatenate([
            -np.arange(1.0, m + 1)[::-1],
            np.zeros(1 if n % 2 else 0),
            np.arange(1.0, m + 1),
        ])
        spec = self._spec(values)
        eqset = spectral.enumerate_equilibria(spec)
        got = {tuple(np.round(p, 9)) for p in eqset.points}
        want = {tuple(np.round(p, 9)) for p in brute_force_equilibria(spec)}
        assert got == want

    @pytest.mark.parametrize("mags", [[1.0, 2.0], [1.0, 2.5, 4.0]])
    @pytest.mark.parametrize("scale", [1.0, 1e-200, 2.0 ** -40, 1e200])
    def test_brute_force_is_scale_free(self, mags, scale):
        # signed equilibria: 2! * 2^2 = 8 for n = 4, 4 * 3! * 2^3 = 192 for n = 7
        mags = np.array(mags)
        zero = [0.0] if mags.size == 3 else []
        spec = self._spec(scale * np.concatenate([-mags[::-1], zero, mags]))
        want = {tuple(p) for p in spectral.enumerate_equilibria(spec).points}
        got = [tuple(p) for p in brute_force_equilibria(spec)]
        assert len(got) == len(want) == {2: 8, 3: 192}[mags.size]
        assert set(got) == want

    def test_size_cap_refuses_before_building(self):
        mags = np.arange(1.0, 7.0)
        spec = self._spec(np.concatenate([-mags[::-1], [0.0], mags]))  # n = 13
        assert len(spectral.enumerate_equilibria(spec, include_signs=False).points) == 5040
        with pytest.raises(ValidationFailure, match="exceed"):
            spectral.enumerate_equilibria(spec)  # 7 * 6! * 2^6 = 322560 points

    def test_degenerate_magnitudes_rejected(self):
        # the gap tolerance is set on the spectrum's values: 1e-8 * ||T||_F
        with pytest.raises(DegenerateSpectrum, match="^smallest eigenvalue gap 1.000e-12 "
                           "does not exceed gap_tol 2.000e-08; eigenvalues must be "
                           "pairwise distinct$"):
            spectral.enumerate_equilibria(self._spec([-1.0, -1.0 + 1e-12,
                                                      1.0 - 1e-12, 1.0]))
