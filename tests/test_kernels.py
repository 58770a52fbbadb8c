"""The numpy kernels: lane report, Sturm eigensolver, in-order sums, recording.

The Sturm eigensolver is checked against LAPACK (``numpy.linalg.eigvalsh``).
The stepper's vectorised error norm and residuals must add their terms in the
order of a scalar loop, so they are pinned bit for bit to loop references.
"""

import numpy as np
import pytest

from kvmflow import jacobi, kernels


class TestLaneSelection:
    def test_lane_reports_active_path(self):
        assert kernels.lane() == "numpy"


class TestSturmBatch:
    def test_matches_eigvalsh_within_bisection_tolerance(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 5, 13):
            d = rng.uniform(-10, 10, n)
            E = rng.uniform(-10, 10, (8, max(n - 1, 0)))
            tol = 1e-12 * (1 + 10 * n)
            eigs, ok = kernels.sturm_batch(d, E, tol, 128)
            assert ok
            for row, e in zip(eigs, E):
                lapack = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
                assert np.abs(row - lapack).max() <= 3 * tol


def _loop_sum(values):
    s = 0.0
    for v in values:
        s += v
    return s


class TestSumsInLoopOrder:
    def test_sum_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        for size in (0, 1, 2, 7, 8, 9, 28, 64, 200):
            x = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-8, 8, size)
            assert kernels._sum_in_order(x) == _loop_sum(x)

    def test_offdiag_residual_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        for k in (0, 1, 2, 5, 28):
            a = rng.uniform(-10, 10, k)
            loop = 2.0 * _loop_sum([(a[i] * a[i + 1]) ** 2 for i in range(k - 1)])
            assert kernels._resid2_offdiag(a) == loop

    def test_dense_residual_matches_scalar_loop(self):
        rng = np.random.default_rng(13)
        for n in (1, 3, 8):
            H = rng.normal(size=(n, n))
            H = 0.5 * (H + H.T)
            K = jacobi.commutator(H, jacobi.map_N(H))
            loop = _loop_sum([K[i, j] * K[i, j] for i in range(n) for j in range(n)])
            assert kernels._resid2_dense(H) == loop


class TestRecording:
    def test_decimation_keeps_t0_and_final(self):
        a0 = np.array([5.0, -6.0, -2.0])
        times, states, count, status, naccept, _ = kernels.integrate_offdiag_kernel(
            a0, 1.0, 1e-3, True, 1e-10, 1e-10, 0.0, 1e-14, 1, 32)
        assert count <= 32
        assert times[0] == 0.0
        assert times[count - 1] == pytest.approx(1.0, abs=1e-12)
        assert naccept > 32  # decimation actually happened

    def test_halving_keeps_even_rows(self):
        times = np.arange(7.0)
        states = np.arange(14.0).reshape(7, 2)
        count = kernels._halve_rows(times, states, 7)
        assert count == 4
        np.testing.assert_array_equal(times[:count], [0.0, 2.0, 4.0, 6.0])
        np.testing.assert_array_equal(states[:count], [[0, 1], [4, 5], [8, 9], [12, 13]])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_underflow_status(self):
        a0 = np.array([5.0, -6.0, -2.0])
        out = kernels.integrate_offdiag_kernel(
            a0, 1.0, 1e-3, False, 1e-300, 1e-300, 0.0, 1e-6, 1, 64)
        assert out[3] == kernels.STATUS_UNDERFLOW


class TestSignReflection:
    # dy/dt = -2 drives y from 1 through zero at t=0.5
    @staticmethod
    def _run(sign0):
        return kernels._integrate(np.array([1.0]), lambda y: np.full_like(y, -2.0),
                                  lambda y: 1.0, sign0, 1.0, 0.01, True, 1e-10,
                                  1e-10, 0.0, 1e-14, 1, 256)

    def test_crossing_is_reflected_onto_initial_orthant(self):
        _, states, count, *_ = self._run(np.array([1.0]))
        assert states[:count].min() >= 0.0

    def test_no_reflection_without_orthant(self):
        _, states, count, *_ = self._run(None)
        assert states[count - 1, 0] == pytest.approx(-1.0)
