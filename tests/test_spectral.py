import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kvmflow import jacobi, spectral
from kvmflow.errors import (
    DegenerateMagnitudes,
    DegenerateSpectrum,
    DimensionMismatch,
    EquilibriumInput,
    NonConvergence,
    PairingViolation,
    ValidationFailure,
    ZeroEntry,
)
from kvmflow.flow import IntegratorConfig
from kvmflow.verify import brute_force_equilibria

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
        with pytest.raises(DimensionMismatch):
            spectral.eigenvalues_tridiagonal([1.0, 2.0], [1.0, 2.0])

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
        # default bisection tolerance is 1e-12 * (1 + ||T||_F)
        spec = spectral.spectrum_zero_diag([1.0, 1.0])
        np.testing.assert_allclose(spec.values, [-math.sqrt(2), 0.0, math.sqrt(2)],
                                   atol=1e-11)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrum):
            spectral.spectrum_zero_diag([1.0, 0.0, 1.0])

    @given(st.lists(st.floats(-20, 20, allow_nan=False), min_size=0, max_size=15))
    def test_pairing_is_structural(self, entries):
        a = np.array(entries, dtype=np.float64)
        spec = spectral.eigenvalues_tridiagonal(np.zeros(a.size + 1), a)
        scale = math.sqrt(2.0 * float(np.sum(a * a)))
        assert spectral.pairing_defect(spec.values) <= 1e-10 * (1 + scale)

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
            spectral.quadrature_nodes([1e200, 1e200])


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
        with pytest.raises(ZeroEntry):
            spectral.predict_limit([1.0, 0.0, 0.5, 2.0], spec)

    def test_equilibrium_rejected(self):
        spec = spectral.spectrum_zero_diag([3.0])
        with pytest.raises(EquilibriumInput):
            spectral.predict_limit([3.0], spec)

    def test_unpaired_spectrum_rejected(self):
        spec = spectral.make_spectrum([1.0, 2.0, 3.0], pair_tol=1e-9)
        with pytest.raises(PairingViolation):
            spectral.predict_limit([1.0, 1.0], spec)

    def test_degenerate_magnitudes_rejected(self):
        spec = spectral.make_spectrum([-1.0, -1.0 + 1e-12, 1.0 - 1e-12, 1.0])
        with pytest.raises(DegenerateMagnitudes):
            spectral.predict_limit([1.0, 0.5, 1.0], spec)

    def test_prediction_is_an_equilibrium_with_same_spectrum(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(3, 11))
            a = rng.uniform(0.5, 10, n - 1) * rng.choice([-1.0, 1.0], n - 1)
            try:
                spec = spectral.spectrum_zero_diag(a)
                pred = spectral.predict_limit(a, spec)
            except (DegenerateSpectrum, DegenerateMagnitudes):
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

    def test_size_cap_refuses_before_building(self):
        mags = np.arange(1.0, 7.0)
        spec = self._spec(np.concatenate([-mags[::-1], [0.0], mags]))  # n = 13
        assert len(spectral.enumerate_equilibria(spec, include_signs=False).points) == 5040
        with pytest.raises(ValidationFailure, match="exceed"):
            spectral.enumerate_equilibria(spec)  # 7 * 6! * 2^6 = 322560 points

    def test_degenerate_magnitudes_rejected(self):
        with pytest.raises(DegenerateMagnitudes):
            spectral.enumerate_equilibria(self._spec([-1.0, -1.0 + 1e-12,
                                                      1.0 - 1e-12, 1.0]))


class TestQuadratureNodes:
    def test_example1_two_decimals(self, ex1):
        nodes = spectral.quadrature_nodes(ex1)
        np.testing.assert_allclose(nodes, [-7.96, -1.26, 1.26, 7.96], atol=0.005)

    def test_single_coefficient(self):
        np.testing.assert_allclose(spectral.quadrature_nodes([1.0]), [-1.0, 1.0],
                                   atol=1e-10)

    def test_flow_and_direct_agree(self):
        a = [1.0, 1.0]
        direct = spectral.quadrature_nodes(a, method="direct")
        via_flow = spectral.quadrature_nodes(a, method="flow")
        np.testing.assert_allclose(direct, [-math.sqrt(2), 0, math.sqrt(2)],
                                   atol=1e-9)
        assert np.abs(direct - via_flow).max() <= 1e-6

    def test_flow_and_direct_agree_even_n(self, ex1):
        direct = spectral.quadrature_nodes(ex1, method="direct")
        via_flow = spectral.quadrature_nodes(ex1, method="flow")
        assert np.abs(direct - via_flow).max() <= 1e-6

    def test_direct_nodes_scale_with_the_input(self, ex1):
        # no absolute tolerance: nodes of size 1e-60 keep their digits
        np.testing.assert_allclose(spectral.quadrature_nodes(5e-60 * ex1),
                                   5e-60 * spectral.quadrature_nodes(ex1),
                                   rtol=1e-9, atol=0)

    def test_flow_short_of_equilibrium_raises(self, ex1):
        # at t=0.01 the state is far from the limit (+/-7.96, +/-1.26)
        with pytest.raises(NonConvergence, match="t_max"):
            spectral.quadrature_nodes(ex1, method="flow",
                                      cfg=IntegratorConfig(t_max=0.01))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            spectral.quadrature_nodes([1.0], method="magic")
