"""The numpy kernels: lane report, Sturm eigensolver, log chart, in-order sums, recording.

The Sturm eigensolver is checked against LAPACK (``numpy.linalg.eigvalsh``),
cold and warm-started.
The stepper's vectorised error norm and residuals must add their terms in the
order of a scalar loop, so they are pinned bit for bit to loop references.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvmflow import jacobi, kernels

from oracles import dopri_step


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
            eigs, ok = kernels.sturm_batch(d, E, tol)
            assert ok
            warm, ok = kernels.sturm_batch(d, E, tol, guess=eigs)
            assert ok
            for row, warm_row, e in zip(eigs, warm, E):
                lapack = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
                assert np.abs(row - lapack).max() <= 3 * tol
                assert np.abs(warm_row - lapack).max() <= 3 * tol

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40).flatmap(
               lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1)),
           st.floats(-100.0, 100.0))
    def test_zero_diagonal_matches_eigvalsh_and_mirrors(self, entries, exponent):
        a = np.array(entries, dtype=np.float64) * 10.0 ** exponent
        n = a.size + 1
        tol = 1e-12 * (1 + np.sqrt(2.0 * np.sum(a * a)))
        eigs, ok = kernels.sturm_batch(np.zeros(n), a[None, :], tol)
        assert ok
        lapack = np.linalg.eigvalsh(jacobi.embed(a))
        assert np.abs(eigs[0] - lapack).max() <= 3 * tol
        np.testing.assert_array_equal(eigs[0], -eigs[0][::-1])


class TestSturmWarmStart:
    """Drift rows: a batch near a0, warm-started from a0's spectrum."""

    @staticmethod
    def _batch(n=13, m=40, spread=1e-9):
        rng = np.random.default_rng(21)
        a0 = rng.uniform(0.5, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        rows = a0 + spread * rng.uniform(-1.0, 1.0, (m, n - 1))
        tol = 1e-12 * (1 + np.sqrt(2.0 * np.sum(a0 * a0)))
        ref, ok = kernels.sturm_batch(np.zeros(n), a0[None, :], tol)
        assert ok
        return rows, ref[0], tol

    @staticmethod
    def _solve(rows, tol, guess=None):
        eigs, ok = kernels.sturm_batch(np.zeros(rows.shape[1] + 1), rows, tol, guess=guess)
        assert ok
        return eigs

    @staticmethod
    def _count_sweeps(monkeypatch):
        """Count the Sturm-count passes over the batch."""
        passes = []
        make_counter = kernels._sturm_counter

        def counting(*args):
            count = make_counter(*args)

            def counted(x):
                passes.append(x.shape)
                return count(x)
            return counted

        monkeypatch.setattr(kernels, "_sturm_counter", counting)
        return passes

    def test_warm_and_cold_agree(self, monkeypatch):
        rows, ref, tol = self._batch()
        passes = self._count_sweeps(monkeypatch)
        cold = self._solve(rows, tol)
        cold_passes = len(passes)
        warm = self._solve(rows, tol, guess=ref)
        assert np.abs(warm - cold).max() <= 2 * tol
        # warm brackets start 2e-7 * (1 + bound) wide: half the sweeps or fewer
        assert len(passes) - cold_passes < cold_passes // 2

    @pytest.mark.parametrize("n", [12, 13])
    def test_every_bracket_failing_gives_cold_result(self, n):
        rows, ref, tol = self._batch(n=n)
        np.testing.assert_array_equal(self._solve(rows, tol, guess=ref + 1.0),
                                      self._solve(rows, tol))

    def test_one_failing_bracket_is_still_correct(self):
        rows, ref, tol = self._batch()
        guess = ref.copy()
        guess[-3] += 1e-3  # this bracket misses its eigenvalue and falls back
        warm = self._solve(rows, tol, guess=guess)
        assert np.abs(warm - self._solve(rows, tol)).max() <= 2 * tol
        for row, e in zip(warm, rows):
            assert np.abs(row - np.linalg.eigvalsh(jacobi.embed(e))).max() <= 3 * tol


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


def _log_chart(a):
    """v = log|a / ||a|| |, the state the off-diagonal kernel steps."""
    a = np.asarray(a, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return np.log(np.abs(a) / np.linalg.norm(a))


class TestLogChart:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=12),
           st.floats(-50.0, 50.0))
    def test_field_is_the_flow_on_log_magnitudes(self, mags, exponent):
        # d log|a_i| / d(c^2 t) = (da_i/dt) / (a_i c^2), at any scale c
        a = np.array(mags) * 10.0 ** exponent
        c2 = float(np.sum(a * a))
        got = jacobi.log_chart_rhs(a.size)(_log_chart(a))
        want = jacobi.rhs_componentwise(a) / a / c2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_field_reuses_its_buffer(self):
        rhs = jacobi.log_chart_rhs(3)
        first = rhs(_log_chart([5.0, -6.0, -2.0])).copy()
        rhs(_log_chart([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(rhs(_log_chart([5.0, -6.0, -2.0])), first)

    def test_zero_entry_stays_exactly_at_minus_infinity(self):
        # with strict=False a zero entry is v = -inf: a fixed point that adds
        # nothing to the field, the residual or the error norm
        v0 = _log_chart([1.0, 0.0, 0.5, 2.0])
        rhs = jacobi.log_chart_rhs(4)
        field = rhs(v0)
        assert field[0] == 0.0
        np.testing.assert_array_equal(field[2:], jacobi.log_chart_rhs(2)(v0[2:]))
        times, states, count, status, *_ = kernels.integrate_offdiag_kernel(
            v0, 100.0, 1e-10, 1e-10, 1e-10, 1e-12, 1, 1000)
        assert status == kernels.STATUS_CONVERGED
        assert np.all(states[:count, 1] == -np.inf)
        assert np.all(np.isfinite(states[:count, [0, 2, 3]]))
        # the left block [a_1] is alone: it does not move
        assert np.all(states[:count, 0] == v0[0])
        assert kernels._resid2_log(np.array([0.0, -np.inf, -np.inf])) == 0.0


class TestOneStep:
    """The first step of the fused stage arithmetic against the textbook step."""

    @staticmethod
    def _start(kind):
        rng = np.random.default_rng(17)
        if kind == "dense":
            H = rng.uniform(-1.0, 1.0, (5, 5))
            H = H + H.T
            H /= np.linalg.norm(H) / np.sqrt(2.0)
            return H, kernels.integrate_dense_kernel, jacobi.rhs_matrix
        a = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        if kind == "log_zero":
            a[2] = 0.0
        return _log_chart(a), kernels.integrate_offdiag_kernel, jacobi.log_chart_rhs(6)

    @pytest.mark.parametrize("kind", ["log", "log_zero", "dense"])
    def test_first_step_matches_the_textbook_step(self, kind):
        y0, kernel, rhs = self._start(kind)
        tol = 1e-6
        times, states, count, status, naccept, nreject = kernel(
            y0, 1.0, tol, tol, 0.0, 1e-14, 1, 10_000)
        assert status == kernels.STATUS_HORIZON and count == naccept + 1
        # the first trial step, 1e-3 * t_max, is taken: a NaN or too large
        # error norm would have rejected it
        assert times[1] == 1e-3
        want, err_est = dopri_step(rhs, y0, times[1])
        r = err_est / (tol + tol * np.maximum(np.abs(y0), np.abs(want)))
        assert np.sqrt(np.mean(r * r)) <= 1.0
        got, live = states[1], np.isfinite(want)
        # a zero entry stays exactly at -inf
        assert np.array_equal(np.isfinite(got), live) and np.all(got[~live] == -np.inf)
        assert np.abs(got[live] - want[live]).max() <= 1e-14 * np.abs(want[live]).max()


class TestRecording:
    def test_decimation_keeps_t0_and_final(self):
        v0 = _log_chart([5.0, -6.0, -2.0])
        times, states, count, status, naccept, _ = kernels.integrate_offdiag_kernel(
            v0, 1.0, 1e-10, 1e-10, 0.0, 1e-14, 1, 32)
        assert count <= 32
        assert times[0] == 0.0
        assert times[count - 1] == 1.0
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
        v0 = _log_chart([5.0, -6.0, -2.0])
        out = kernels.integrate_offdiag_kernel(
            v0, 1.0, 1e-300, 1e-300, 0.0, 1e-6, 1, 64)
        assert out[3] == kernels.STATUS_UNDERFLOW

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_step_is_underflow(self):
        # the slope overflows, so the start step set from it is itself NaN
        # or 0: the run stops before its first step
        H = np.array([[0.0, 1e200, 0.0], [1e200, 0.0, 2e200], [0.0, 2e200, 0.0]])
        out = kernels.integrate_dense_kernel(
            H, 1.0, 1e-10, 1e-10, 0.0, 1e-14, 1, 64)
        assert out[3] == kernels.STATUS_UNDERFLOW

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_stage_rejects_and_shrinks_the_step(self):
        # an overflowing stage makes the error estimate non-finite: the trial
        # step is rejected and shrunk by _FAC_MIN, and the run goes on
        v0 = _log_chart([5.0, -6.0, -2.0])
        field = jacobi.log_chart_rhs(3)
        calls = []

        def rhs(v, out):
            field(v, out=out)
            calls.append(None)
            if len(calls) == 3:  # k3 of the first trial step
                out[:] = np.inf
            return out

        times, states, count, status, naccept, nreject = kernels._integrate(
            v0, rhs, kernels._resid2_log, 1.0, 1e-10, 1e-10, 0.0, 1e-14, 1, 1000)
        assert status == kernels.STATUS_HORIZON and nreject >= 1
        assert times[1] == 1e-3 * kernels._FAC_MIN
        assert np.all(np.isfinite(states[:count]))
