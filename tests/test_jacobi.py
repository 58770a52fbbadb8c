import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kvmflow import jacobi, spectral
from kvmflow.errors import ValidationFailure

entries = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
offdiags = st.lists(entries, min_size=0, max_size=15).map(
    lambda xs: np.array(xs, dtype=np.float64)
)


def sym_pair(max_n=6):
    def build(n):
        mat = arrays(np.float64, (n, n), elements=st.floats(-5.0, 5.0))
        return st.tuples(mat, mat).map(
            lambda ab: (0.5 * (ab[0] + ab[0].T), 0.5 * (ab[1] + ab[1].T))
        )

    return st.integers(1, max_n).flatmap(build)


class TestEmbed:
    def test_places_entries_on_super_and_sub_diagonal(self):
        H = jacobi.embed([5.0, -6.0, -2.0])
        expected = np.array([
            [0, 5, 0, 0],
            [5, 0, -6, 0],
            [0, -6, 0, -2],
            [0, 0, -2, 0],
        ], dtype=float)
        np.testing.assert_array_equal(H, expected)

    def test_empty_offdiag_is_1x1_zero(self):
        np.testing.assert_array_equal(jacobi.embed([]), np.zeros((1, 1)))

    def test_single_entry(self):
        np.testing.assert_array_equal(jacobi.embed([3.5]), [[0, 3.5], [3.5, 0]])


class TestMapN:
    def test_coefficients_i_minus_2(self):
        got = jacobi.map_N(jacobi.embed([5.0, -6.0, -2.0]))
        np.testing.assert_array_equal(got, jacobi.embed([-5.0, 0.0, -2.0]))

    def test_n2_negates(self):
        c = 3.25
        np.testing.assert_array_equal(jacobi.map_N(jacobi.embed([c])),
                                      jacobi.embed([-c]))

    def test_zero_matrix(self):
        np.testing.assert_array_equal(jacobi.map_N(np.zeros((5, 5))), np.zeros((5, 5)))

    @pytest.mark.parametrize("layout", [np.asfortranarray, np.transpose])
    def test_result_independent_of_memory_layout(self, layout):
        H = jacobi.embed([5.0, -6.0, -2.0, 0.5])
        for fn in (jacobi.map_N, jacobi.rhs_matrix):
            np.testing.assert_array_equal(fn(layout(H)), fn(H))
        for fn in (jacobi.lyapunov_f, jacobi.lyapunov_f_traceform):
            assert fn(layout(H)) == fn(H)

    @given(sym_pair(), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, pair, alpha, beta):
        A, B = pair
        lhs = jacobi.map_N(alpha * A + beta * B)
        rhs = alpha * jacobi.map_N(A) + beta * jacobi.map_N(B)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12 * (1 + np.abs(rhs).max()))


class TestMapK:
    def test_products_on_second_superdiagonal(self):
        K = jacobi.map_K([5.0, -6.0, -2.0])
        expected = np.zeros((4, 4))
        expected[0, 2], expected[2, 0] = -30.0, 30.0
        expected[1, 3], expected[3, 1] = 12.0, -12.0
        np.testing.assert_array_equal(K, expected)

    def test_n2_commutes(self):
        np.testing.assert_array_equal(jacobi.map_K([1.7]), np.zeros((2, 2)))

    def test_vanishing_products(self):
        np.testing.assert_array_equal(jacobi.map_K([1.0, 0.0, 1.0]), np.zeros((4, 4)))

    @given(offdiags)
    def test_skew_symmetric(self, a):
        K = jacobi.map_K(a)
        np.testing.assert_array_equal(K, -K.T)


class TestCommutator:
    def test_identity_commutes(self):
        B = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(jacobi.commutator(np.eye(3), B), np.zeros((3, 3)))

    def test_self_commutator_zero(self):
        A = np.arange(16.0).reshape(4, 4)
        np.testing.assert_array_equal(jacobi.commutator(A, A), np.zeros((4, 4)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationFailure,
                           match=r"incompatible shapes \(2, 2\) and \(3, 3\)"):
            jacobi.commutator(np.eye(2), np.eye(3))

    def test_equals_map_K_on_example(self):
        a = np.array([5.0, -6.0, -2.0])
        H = jacobi.embed(a)
        got = jacobi.commutator(H, jacobi.map_N(H))
        np.testing.assert_allclose(got, jacobi.map_K(a), atol=1e-12)

    @given(offdiags)
    def test_commutator_with_n_matches_quadratic_map(self, a):
        H = jacobi.embed(a)
        dev = np.linalg.norm(jacobi.map_K(a) - jacobi.commutator(H, jacobi.map_N(H)))
        assert dev <= 1e-10 * (1 + np.linalg.norm(H) ** 2)


class TestRhs:
    def test_hand_evaluated_example(self):
        got = jacobi.rhs_componentwise([5.0, -6.0, -2.0])
        np.testing.assert_allclose(got, [-180.0, -126.0, -72.0], rtol=0, atol=0)

    def test_n2_stationary(self):
        np.testing.assert_array_equal(jacobi.rhs_componentwise([4.2]), [0.0])

    def test_zero_entries_stay_zero(self):
        # middle component carries the factor a_2 = 0, so every slot is still
        got = jacobi.rhs_componentwise([1.0, 0.0, 3.0])
        np.testing.assert_array_equal(got, [0.0, 0.0, 0.0])

    def test_matrix_rhs_of_zero_is_zero(self):
        np.testing.assert_array_equal(jacobi.rhs_matrix(np.zeros((4, 4))),
                                      np.zeros((4, 4)))

    def test_matrix_rhs_matches_componentwise_on_example(self):
        a = np.array([5.0, -6.0, -2.0])
        got = jacobi.rhs_matrix(jacobi.embed(a))
        np.testing.assert_allclose(got, jacobi.embed([-180.0, -126.0, -72.0]),
                                   atol=1e-9)

    @given(sym_pair())
    def test_matrix_rhs_is_symmetric(self, pair):
        H, _ = pair
        R = jacobi.rhs_matrix(H)
        np.testing.assert_array_equal(R, R.T)

    @given(offdiags)
    def test_dense_componentwise_equivalence(self, a):
        H = jacobi.embed(a)
        dev = np.linalg.norm(jacobi.rhs_matrix(H) - jacobi.embed(jacobi.rhs_componentwise(a)))
        assert dev <= 1e-10 * (1 + np.linalg.norm(H) ** 3)

    @given(offdiags)
    def test_rhs_preserves_structure(self, a):
        # the dense right-hand side stays zero-diagonal tridiagonal
        R = jacobi.rhs_matrix(jacobi.embed(a))
        band = jacobi.embed(np.diagonal(R, 1))
        assert np.abs(R - band).max() <= 1e-12 * max(1.0, np.linalg.norm(R))


class TestLyapunov:
    def test_n2_closed_form(self):
        c = 1.3
        assert jacobi.lyapunov_f(jacobi.embed([c])) == pytest.approx(-1.5 * c * c)

    def test_zero_matrix(self):
        assert jacobi.lyapunov_f(np.zeros((3, 3))) == 0.0

    def test_two_forms_agree_on_example(self):
        H = jacobi.embed([5.0, -6.0, -2.0])
        assert abs(jacobi.lyapunov_f(H) - jacobi.lyapunov_f_traceform(H)) < 1e-12 * (
            1 + np.sum(H * H) + np.sum(jacobi.map_N(H) ** 2)
        )

    @given(sym_pair())
    def test_two_forms_agree_random(self, pair):
        H, _ = pair
        scale = 1 + np.sum(H * H) + np.sum(jacobi.map_N(H) ** 2)
        assert abs(jacobi.lyapunov_f(H) - jacobi.lyapunov_f_traceform(H)) <= 1e-12 * scale

    def test_trace_form_takes_a_stack(self):
        # a stack gives each matrix's value to the bit; on a matrix that is
        # not symmetric it still equals the definition form
        rng = np.random.default_rng(8)
        stack = rng.normal(size=(4, 6, 6))
        stack[:2] += np.swapaxes(stack[:2], 1, 2)
        got = jacobi.lyapunov_f_traceform(stack)
        assert got.shape == (4,)
        for H, f in zip(stack, got):
            assert f == jacobi.lyapunov_f_traceform(H)
            assert f == pytest.approx(jacobi.lyapunov_f(H), rel=1e-14)
        assert jacobi.lyapunov_f_traceform(np.zeros((3, 1, 1))).tolist() == [0.0] * 3

    def test_trace_form_rejects_a_non_finite_superdiagonal(self):
        H = np.zeros((2, 3, 3))
        H[1, 1, 2] = np.nan
        with pytest.raises(ValidationFailure, match="not finite"):
            jacobi.lyapunov_f_traceform(H)

    @given(offdiags)
    def test_offdiag_form_matches_dense(self, a):
        f_dense = jacobi.lyapunov_f(jacobi.embed(a))
        f_compact = jacobi.lyapunov_f_offdiag(a[None, :])[0]
        assert f_compact == pytest.approx(f_dense, abs=1e-10 * (1 + abs(f_dense)))

    @given(sym_pair())
    def test_nested_bracket_trace_identity(self, pair):
        # ||[A,B]||^2 = tr(B [A,[A,B]]), so the nested bracket vanishes only
        # together with the inner one
        A, B = pair
        C = jacobi.commutator(A, B)
        c_sq = float(np.sum(C * C))
        got = float(np.trace(B @ jacobi.commutator(A, C)))
        assert abs(c_sq - got) <= 1e-9 * (1 + c_sq)


class TestEquilibriumResidual:
    def test_alternating_zero_pattern(self):
        assert jacobi.equilibrium_residual([1.2555, 0.0, -7.9638]) == 0.0

    def test_example_value(self):
        got = jacobi.equilibrium_residual([5.0, -6.0, -2.0])
        assert got == pytest.approx(np.sqrt(2088.0), rel=1e-14)

    def test_n2_zero(self):
        assert jacobi.equilibrium_residual([0.77]) == 0.0

    @given(offdiags)
    def test_matches_frobenius_norm_of_map_K(self, a):
        direct = jacobi.equilibrium_residual(a)
        dense = np.linalg.norm(jacobi.map_K(a))
        assert direct == pytest.approx(dense, abs=1e-10 * (1 + dense))


class TestLogChartStable:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_the_one_stable_equilibrium_is_the_predicted_limit(self, n):
        # of all equilibria with a spectrum, only predict_limit's placement
        # has the stable pattern
        m = n // 2
        mags = np.arange(1.0, m + 1.0)
        values = np.concatenate([-mags[::-1], np.zeros(n % 2), mags])
        points = spectral.enumerate_equilibria(spectral.make_spectrum(values),
                                               include_signs=False).points
        limit = np.zeros(n - 1)
        limit[spectral.limit_slots(n)] = mags
        # a zero entry is a finite w far below the others, not -inf
        stable = [jacobi.log_chart_stable(np.log(np.maximum(p, 1e-300)))
                  for p in points]
        assert [np.array_equal(p, limit) for p in points] == stable
        assert sum(stable) == 1

    # w = -inf is a zero entry: it splits the state into blocks that flow on
    # their own, each to the pattern of its own size
    @pytest.mark.parametrize("w, stable", [
        ([5.0, -np.inf, 1.0, -3.0], False),  # block [1, -3] is unsorted
        ([5.0, -np.inf, -3.0, 1.0], True),
        ([5.0, -50.0, 1.0, -3.0], False),  # a finite w is no zero entry
        ([-np.inf, 1.0, -3.0], False),
        ([-np.inf, -3.0, 1.0], True),
        ([1.0, -3.0, -np.inf], False),
        ([-3.0, 1.0, -np.inf], True),
        ([5.0, -np.inf, -np.inf, 1.0, -3.0], False),
        ([5.0, -np.inf, -np.inf, -3.0, 1.0], True),
        ([-np.inf, -np.inf, -np.inf], True),
        ([], True),
    ], ids=["inner-unsorted", "inner-sorted", "finite", "leading-unsorted",
            "leading-sorted", "trailing-unsorted", "trailing-sorted", "double-unsorted",
            "double-sorted", "all-zero", "empty"])
    def test_zero_entries_split_the_pattern_into_blocks(self, w, stable):
        assert jacobi.log_chart_stable(np.array(w)) is stable
