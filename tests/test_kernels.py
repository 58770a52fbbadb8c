"""The numpy kernels: lane report, Sturm eigensolver, log chart, in-order sums,
the DOP853 tableau and step, recording and the stepper's stop rules.

The Sturm eigensolver is checked against LAPACK (``numpy.linalg.eigvalsh``,
or ``eigh`` where an off-diagonal entry may be tiny), cold and
warm-started; its cold results are pinned bit for bit to plain one-midpoint
bisection (``oracles.bisect_sturm``), its warm ones to a scalar loop of one
Newton step and two Sturm counts per eigenvalue (``oracles.newton_certify``).
The stepper's vectorised error norm and residuals must add their terms in the
order of a scalar loop, so they are pinned bit for bit to loop references.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kvmflow import flow, jacobi, kernels
from kvmflow.errors import NonConvergence

from oracles import (
    _scalar_count, _squares, bisect_sturm, dop853_step, newton_certify, newton_step,
)


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
            eigs = kernels.sturm_batch(d, E, tol)
            warm = kernels.sturm_batch(d, E, tol, guess=eigs)
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
        eigs = kernels.sturm_batch(np.zeros(n), a[None, :], tol)
        # eigh, not eigvalsh: eigvalsh squares the off-diagonal, and a square
        # that is subnormal against the largest entry gives it wrong values
        lapack = np.linalg.eigh(jacobi.embed(a))[0]
        assert np.abs(eigs[0] - lapack).max() <= 3 * tol
        np.testing.assert_array_equal(eigs[0], -eigs[0][::-1])


def _count_sweeps(monkeypatch):
    """Record the shape of every Sturm-count pass over the batch."""
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


class TestSturmBisection:
    """Cold solves: one Sturm-count pass per halving, bisection's bits."""

    @staticmethod
    def _assert_bisection_bits(diag, offdiags, tol, monkeypatch):
        want, want_ok, halvings = bisect_sturm(diag, offdiags, tol)
        assert want_ok
        with monkeypatch.context() as mp:
            passes = _count_sweeps(mp)
            got = kernels.sturm_batch(diag, offdiags, tol)
        np.testing.assert_array_equal(got, want)
        assert len(passes) == halvings

    @pytest.mark.parametrize("zero_diag", [True, False])
    @pytest.mark.parametrize("m", [1, 3, 40])
    def test_matches_bisection_bit_for_bit(self, zero_diag, m, monkeypatch):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 8, 13, 29, 40):
            for exponent in (-100.0, 0.0, 7.0, 100.0):
                d = np.zeros(n) if zero_diag else rng.uniform(-1.0, 1.0, n) * 10.0 ** exponent
                E = rng.uniform(-1.0, 1.0, (m, n - 1)) * 10.0 ** exponent
                if n > 2:
                    E[:, n // 2] = 0.0  # two blocks: repeated eigenvalues
                norm = np.sqrt(np.sum(d * d) + 2.0 * np.sum(E * E, axis=1).max())
                self._assert_bisection_bits(d, E, 1e-12 * (1.0 + norm), monkeypatch)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40).flatmap(
               lambda n: st.lists(st.floats(-1.0, 1.0), min_size=n - 1, max_size=n - 1)),
           st.floats(-100.0, 100.0), st.booleans())
    def test_hypothesis_inputs_match_bisection_bit_for_bit(self, entries, exponent, zero_diag):
        a = np.array(entries, dtype=np.float64) * 10.0 ** exponent
        n = a.size + 1
        d = np.zeros(n) if zero_diag else np.linspace(-1.0, 1.0, n) * 10.0 ** exponent
        tol = 1e-12 * (1 + np.sqrt(np.sum(d * d) + 2.0 * np.sum(a * a)))
        with pytest.MonkeyPatch.context() as mp:
            self._assert_bisection_bits(d, a[None, :], tol, mp)

    def test_unreachable_tolerance_spends_every_halving(self, monkeypatch):
        rng = np.random.default_rng(32)
        for d in (np.zeros(9), rng.uniform(-1.0, 1.0, 9)):
            E = rng.uniform(-1.0, 1.0, (2, 8))
            want, want_ok, halvings = bisect_sturm(d, E, 1e-300)
            assert (want_ok, halvings) == (0, 128)
            with monkeypatch.context() as mp:
                passes = _count_sweeps(mp)
                with pytest.raises(NonConvergence, match="failed to shrink"):
                    kernels.sturm_batch(d, E, 1e-300)
            assert len(passes) == 128

    def test_counts_that_are_not_monotone_are_followed_as_bisection_would(
            self, monkeypatch):
        # a count that jumps back and forth with x: each halving still keeps
        # the half that the count at its midpoint picks, as bisection does
        def perturb(x, cnt):
            return cnt + ((x.view(np.int64) >> 30) & 1)

        make_counter = kernels._sturm_counter

        def perturbed(*args):
            count = make_counter(*args)
            return lambda x: perturb(x, count(x))

        monkeypatch.setattr(kernels, "_sturm_counter", perturbed)
        rng = np.random.default_rng(33)
        for d in (np.zeros(12), rng.uniform(-1.0, 1.0, 12)):
            E = rng.uniform(-1.0, 1.0, (3, 11))
            tol = 1e-12 * (1.0 + np.sqrt(np.sum(d * d) + 2.0 * np.sum(E * E, axis=1).max()))
            want, want_ok, _ = bisect_sturm(d, E, tol, perturb)
            assert want_ok
            np.testing.assert_array_equal(kernels.sturm_batch(d, E, tol), want)


def _no_bisection(*args):
    raise AssertionError("a row that should certify was bisected")


class TestSturmWarmStart:
    """Drift rows: a batch near a0, warm-started from a0's spectrum."""

    @staticmethod
    def _batch(n=13, m=40, spread=1e-9):
        rng = np.random.default_rng(21)
        a0 = rng.uniform(0.5, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        rows = a0 + spread * rng.uniform(-1.0, 1.0, (m, n - 1))
        tol = 1e-12 * (1 + np.sqrt(2.0 * np.sum(a0 * a0)))
        ref = kernels.sturm_batch(np.zeros(n), a0[None, :], tol)
        return rows, ref[0], tol

    @staticmethod
    def _solve(rows, tol, guess=None):
        return kernels.sturm_batch(np.zeros(rows.shape[1] + 1), rows, tol, guess=guess)

    def test_warm_and_cold_agree(self, monkeypatch):
        rows, ref, tol = self._batch()
        passes = _count_sweeps(monkeypatch)
        cold = self._solve(rows, tol)
        cold_passes = len(passes)
        warm = self._solve(rows, tol, guess=ref)
        assert np.abs(warm - cold).max() <= 2 * tol
        # one Newton step from the guess, certified by one count pass
        assert len(passes) - cold_passes < cold_passes // 2

    @pytest.mark.parametrize("n", [12, 13])
    def test_certified_solve_is_one_newton_and_one_count_sweep(self, n, monkeypatch):
        rows, ref, tol = self._batch(n=n)
        passes = _count_sweeps(monkeypatch)
        newton = []
        sweep = kernels._newton_sweep

        def counted_newton(diag, e2T, x, flat):
            newton.append(x.shape)
            return sweep(diag, e2T, x, flat)

        monkeypatch.setattr(kernels, "_newton_sweep", counted_newton)
        monkeypatch.setattr(kernels, "_bisect", _no_bisection)
        warm = self._solve(rows, tol, guess=ref)
        k = n // 2
        assert newton == [(len(rows), k)]
        assert passes == [(len(rows), 2 * k)]
        for row, e in zip(warm, rows):
            assert np.abs(row - np.linalg.eigvalsh(jacobi.embed(e))).max() <= tol

    def test_far_guess_is_kept_on_its_certificate(self, monkeypatch):
        # eigenvalues +-a; from g = a (1 + 1e-6) one Newton step lands within
        # tol of a, and the two Sturm counts keep it however far it moved
        a = np.array([[0.75]])
        tol = 1e-12 * (1 + np.sqrt(2.0) * 0.75)
        guess = np.array([-0.75, 0.75 * (1.0 + 1e-6)])
        newton = kernels._newton_sweep(np.zeros(2), (a * a)[:, :, None], guess[None, 1:],
                                       True)
        assert abs(newton[0, 0] - 0.75) <= tol
        monkeypatch.setattr(kernels, "_bisect", _no_bisection)
        np.testing.assert_array_equal(self._solve(a, tol, guess=guess),
                                      [[-newton[0, 0], newton[0, 0]]])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 30).flatmap(lambda n: st.lists(
               st.one_of(st.floats(0.05, 1.0), st.floats(-1.0, -0.05), st.just(0.0)),
               min_size=n - 1, max_size=n - 1)),
           st.floats(-100.0, 100.0), st.floats(-14.0, -6.0), st.integers(1, 8),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_warm_values_are_eigenvalues_within_tol(self, entries, exponent, spread,
                                                     m, seed, near_degenerate):
        a0 = np.array(entries, dtype=np.float64)
        if near_degenerate:
            a0 = np.concatenate([a0, [1.0, 1e-9, 1.0]])  # a pair 1e-9 apart
        a0 *= 10.0 ** exponent
        n = a0.size + 1
        rng = np.random.default_rng(seed)
        # drift rows: a0 moved by a relative spread; zero entries stay zero
        rows = a0 * (1.0 + 10.0 ** spread * rng.uniform(-1.0, 1.0, (m, n - 1)))
        tol = 1e-12 * (1 + np.sqrt(2.0 * np.sum(a0 * a0)))
        ref = kernels.sturm_batch(np.zeros(n), a0[None, :], tol)
        warm = kernels.sturm_batch(np.zeros(n), rows, tol, guess=ref[0])
        for row, e in zip(warm, rows):
            lapack = np.linalg.eigh(jacobi.embed(e))[0]  # eigvalsh squares e
            # LAPACK's own error, a few ulps of the norm, on top of tol
            assert np.abs(row - lapack).max() <= tol + 1e-14 * np.abs(lapack).max(initial=0.0)
            np.testing.assert_array_equal(row, -row[::-1])

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


class TestSturmWarmBits:
    """Warm solves against oracles.newton_certify, bit for bit: a certified
    row holds its Newton values, and the rows that are not are bisected
    together as a cold batch. A diagonal whose entries share the first one's
    bits forms d_i - x once per sweep; the oracle forms it per pivot."""

    DIAGONALS = {
        "zero": lambda n, rng: np.zeros(n),
        "signed_zeros": lambda n, rng: np.where(np.arange(n) % 2 == 1, -0.0, 0.0),
        "constant": lambda n, rng: np.full(n, 0.625),
        "general": lambda n, rng: rng.uniform(-1.0, 1.0, n),
    }

    @staticmethod
    def _expected(diag, rows, tol, guess):
        x, certified = newton_certify(diag, rows, tol, guess)
        m, n = len(rows), rows.shape[1] + 1
        if np.any(diag):
            want = x
        else:
            want = np.concatenate([-x[:, ::-1], np.zeros((m, n % 2)), x], axis=1)
        if not certified.all():
            cold, ok, _ = bisect_sturm(diag, rows[~certified], tol)
            assert ok
            want[~certified] = cold
        return want, certified

    @pytest.mark.parametrize("kind", list(DIAGONALS))
    def test_matches_scalar_newton_and_counts_bit_for_bit(self, kind):
        rng = np.random.default_rng(41)
        certified_rows = cold_rows = 0
        for n in (1, 2, 3, 8, 13):
            diag = self.DIAGONALS[kind](n, rng)
            a0 = rng.uniform(0.5, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
            rows = a0 * (1.0 + 1e-7 * rng.uniform(-1.0, 1.0, (6, n - 1)))
            tol = 1e-12 * (1.0 + np.sqrt(np.sum(diag * diag) + 2.0 * np.sum(a0 * a0)))
            ref = np.linalg.eigvalsh(np.diag(diag) + np.diag(a0, 1) + np.diag(a0, -1))
            per_row = ref + np.where(np.arange(6) % 3 == 0, 1e-3, 0.0)[:, None]
            for guess in (ref, ref + 1e-3, per_row):
                want, certified = self._expected(diag, rows, tol, guess)
                got = kernels.sturm_batch(diag, rows, tol, guess=guess)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
                certified_rows += certified.sum()
                cold_rows += (~certified).sum()
        assert certified_rows and cold_rows  # both paths were taken

    @pytest.mark.parametrize("kind", list(DIAGONALS))
    def test_newton_sweep_matches_scalar_loop_bit_for_bit(self, kind):
        # far from the eigenvalues the step is large, so its last bits show
        # the order of operations (near one they vanish into the guess's)
        rng = np.random.default_rng(42)
        for n in (1, 2, 3, 8, 13):
            diag = self.DIAGONALS[kind](n, rng)
            rows = rng.uniform(-2.0, 2.0, (4, n - 1))
            x = rng.uniform(-3.0, 3.0, (4, 5))
            bits = diag.view(np.int64)
            flat = bool((bits == bits[0]).all())
            e2T = np.ascontiguousarray((rows * rows).T)[:, :, None]
            got = kernels._newton_sweep(diag, e2T, x, flat)
            np.testing.assert_array_equal(got, newton_step(diag, rows, x))


class TestSturmCountClamp:
    """The count against oracles._scalar_count entry by entry, where pivots
    fall below pivmin: the count runs the clamp only for a pivot whose
    smallest entry is below the batch's largest pivmin, and adds its flags
    into the narrowest unsigned type that holds n."""

    @staticmethod
    def _assert_counts(diag, offdiags, x):
        # the arguments sturm_batch builds
        e2 = offdiags * offdiags
        e2T = np.ascontiguousarray(e2.T)[:, :, None]
        pivmin = 1.0e-292 * np.maximum(1.0, e2.max(axis=1, initial=0.0))[:, None]
        bits = diag.view(np.int64)
        flat = bool((bits == bits[0]).all())
        got = kernels._sturm_counter(diag, e2T, pivmin, x.shape, flat)(x)
        want = [[_scalar_count(diag, _squares(row), p, xj) for xj in xs]
                for row, p, xs in zip(offdiags, pivmin[:, 0], x)]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [2, 9, 255, 256])
    @pytest.mark.parametrize("zero_diag", [True, False])
    @pytest.mark.parametrize("batch", ["shared_pivmin", "own_pivmin"])
    def test_zero_pivots_count_as_the_scalar_loop(self, batch, zero_diag, n):
        rng = np.random.default_rng(43)
        E = rng.uniform(-1.0, 1.0, (4, n - 1))
        # rows 1 and 3 lead with e_1; in the own_pivmin batch they are
        # scaled by 4, so their e^2 up to 16 give them their own pivmin, and
        # otherwise every e^2 <= 1 and pivmin is shared
        e_1 = 0.5
        if batch == "own_pivmin":
            E[1::2] *= 4.0
            e_1 = 2.0
        E[:, 0] = [1.0, e_1, 1.0, e_1]
        diag = np.zeros(n) if zero_diag else rng.uniform(-1.0, 1.0, n)
        diag[0] = 0.0
        # x = 0 makes the first pivot 0 on a diagonal that starts with 0; on
        # a zero diagonal x = +/- e (1 or e_1, a row's first entry) makes
        # the second one 0, as (0 - x) - e^2 / (0 - x); 1e3 is above every
        # eigenvalue, so its count is n
        points = np.array([0.0, 1.0, -1.0, e_1, -e_1, 1e3])
        x = np.concatenate([np.tile(points, (4, 1)), rng.uniform(-3.0, 3.0, (4, 4))], axis=1)
        e2max = (E * E).max(axis=1)
        assert (e2max.max() > 1.0) == (batch == "own_pivmin")
        self._assert_counts(diag, E, x)

    def test_pivot_between_two_rows_pivmin_is_clamped_only_in_the_larger(self):
        # a last e of 0 makes the last pivot d_n - x: at x = 0 it is 2e-292
        # on both rows, above the first row's pivmin 1e-292 and below the
        # second's 1.6e-291, so only the second row counts it; no entry of
        # that pivot is below 1e-292
        E = np.array([[0.5, 0.25, -1.0, 0.0], [4.0, 0.25, -1.0, 0.0]])
        x = np.array([[0.0, -1.0], [0.0, -1.0]])
        for diag in (np.full(5, 2e-292), np.array([0.0, 0.5, -0.5, 0.0, 2e-292])):
            self._assert_counts(diag, E, x)


def _loop_sum(values):
    s = 0.0
    for v in values:
        s += v
    return s


def _log_chart_resid2(w):
    """2 sum u_i u_{i+1} with u = exp(w), from scratch in a scalar loop."""
    u = np.exp(w)
    return 2.0 * _loop_sum([u[i] * u[i + 1] for i in range(len(w) - 1)])


def _dense_resid2(H):
    """Sum of K_ij^2 over K = [H, N(H)], from scratch in a scalar loop."""
    K = jacobi._bracket_K(H)
    n = len(H)
    return _loop_sum([K[i, j] * K[i, j] for i in range(n) for j in range(n)])


class TestSumsInLoopOrder:
    """Each field's resid2() is the residual of its last rhs call, summed in
    the order of a scalar loop."""

    def test_sum_matches_scalar_loop(self):
        rng = np.random.default_rng(11)
        for size in (0, 1, 2, 7, 8, 9, 28, 64, 200):
            x = rng.uniform(-1, 1, size) * 10.0 ** rng.integers(-8, 8, size)
            assert jacobi._sum_in_order(x) == _loop_sum(x)

    def test_offdiag_residual_matches_scalar_loop(self):
        rng = np.random.default_rng(12)
        for k in (0, 1, 2, 5, 28):
            rhs, resid2 = jacobi.log_chart_rhs(k)
            w = 2.0 * np.log(rng.uniform(0.01, 1.0, k))
            rhs(w)
            assert resid2() == _log_chart_resid2(w)

    def test_dense_residual_matches_scalar_loop(self):
        rng = np.random.default_rng(13)
        for n in (1, 3, 8):
            H = rng.normal(size=(n, n))
            H = 0.5 * (H + H.T)
            rhs, resid2 = jacobi._dense_field(n)
            rhs(H)
            assert resid2() == _dense_resid2(H)

    @pytest.mark.parametrize("kind", ["log", "dense"])
    def test_stop_residual_is_that_of_each_accepted_state(self, kind, monkeypatch):
        # the stepper reads resid2() after a step's last field call, the FSAL
        # stage k13 = f(y_new): it must be the residual of the state recorded
        rng = np.random.default_rng(14)
        seen = []

        def recording(field):
            def wrapped(*args):
                rhs, resid2 = field(*args)

                def read():
                    seen.append(resid2())
                    return seen[-1]
                return rhs, read
            return wrapped

        if kind == "log":
            monkeypatch.setattr(kernels, "log_chart_rhs", recording(jacobi.log_chart_rhs))
            a = rng.uniform(0.5, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
            y0, kernel = _log_chart(a), kernels.integrate_offdiag_kernel
        else:
            monkeypatch.setattr(kernels, "_dense_field", recording(jacobi._dense_field))
            H = rng.uniform(-1.0, 1.0, (5, 5))
            y0, kernel = (H + H.T) / np.linalg.norm(H + H.T), kernels.integrate_dense_kernel
        times, states, count, status, naccept, _ = kernel(y0, 5.0, 1e-10, 0.0, 10_000)
        assert status == kernels.STATUS_HORIZON and count == naccept + 1 == len(seen) + 1
        if kind == "log":
            want = [_log_chart_resid2(2.0 * v) for v in states[1:count]]
            reported = jacobi.residual_norms(states[1:count])
        else:
            want = [_dense_resid2(S) for S in states[1:count]]
            reported = flow.DenseTrajectory._residuals(states[1:count])
        assert seen == want
        # the trajectory reports the residual the stop test compares
        assert reported.tolist() == [math.sqrt(r2) for r2 in seen]


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
        # w = 2 v in s = 2 tau: dw/ds = dv/dtau
        rhs, _ = jacobi.log_chart_rhs(a.size)
        got = rhs(2.0 * _log_chart(a))
        want = jacobi.rhs_componentwise(a) / a / c2
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)

    def test_field_reuses_its_buffer(self):
        rhs, _ = jacobi.log_chart_rhs(3)
        first = rhs(2.0 * _log_chart([5.0, -6.0, -2.0])).copy()
        rhs(2.0 * _log_chart([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(rhs(2.0 * _log_chart([5.0, -6.0, -2.0])), first)

    def test_zero_entry_stays_exactly_at_minus_infinity(self):
        # with strict=False a zero entry is v = -inf: a fixed point that adds
        # nothing to the field, the residual or the error norm
        v0 = _log_chart([1.0, 0.0, 0.5, 2.0])
        rhs, _ = jacobi.log_chart_rhs(4)
        field = rhs(2.0 * v0)
        assert field[0] == 0.0
        np.testing.assert_array_equal(field[2:], jacobi.log_chart_rhs(2)[0](2.0 * v0[2:]))
        times, states, count, status, *_ = kernels.integrate_offdiag_kernel(
            v0, 100.0, 1e-10, 1e-10, 1000)
        assert status == kernels.STATUS_CONVERGED
        assert np.all(states[:count, 1] == -np.inf)
        assert np.all(np.isfinite(states[:count, [0, 2, 3]]))
        # the left block [a_1] is alone: it does not move
        assert np.all(states[:count, 0] == v0[0])
        rhs, resid2 = jacobi.log_chart_rhs(3)
        rhs(np.array([0.0, -np.inf, -np.inf]))
        assert resid2() == 0.0


class TestTableau:
    """The order conditions of the stage matrix: a transcription typo in one
    of its digits still converges, but at a lower order."""

    # the nodes c_1 ... c_13 of DOP853 in closed form
    _R6 = np.sqrt(6.0)
    C = np.array([0.0, 2.0 * (6.0 - _R6) / 135.0, (6.0 - _R6) / 45.0, (6.0 - _R6) / 30.0,
                  (6.0 + _R6) / 30.0, 1.0 / 3.0, 1.0 / 4.0, 4.0 / 13.0, 127.0 / 195.0,
                  3.0 / 5.0, 6.0 / 7.0, 1.0, 1.0])

    @staticmethod
    def _quadrature(weights, c, q):
        return math.fsum(weights * c ** (q - 1))

    def test_nodes_are_the_row_sums(self):
        # rows 0..11 are the arguments of k2 ... k12 and y_new over y, k1, ..., k12
        T = kernels._DOP853
        assert T.shape == (14, 13)
        for i in range(12):
            assert T[i, 0] == 1.0 and not T[i, i + 2:].any()
            assert abs(math.fsum(T[i, 1:]) - self.C[i + 1]) <= 1e-14

    def test_weights_are_eighth_order(self):
        b = kernels._DOP853[11, 1:13]
        for q in range(1, 9):
            assert abs(self._quadrature(b, self.C[:12], q) - 1.0 / q) <= 1e-14

    def test_error_weights_sum_to_zero(self):
        # the embedded solutions are exact up to their own orders, 5 and 3
        T = kernels._DOP853
        assert not T[12:, 0].any()
        for row, order in ((T[12, 1:13], 5), (T[13, 1:13], 3)):
            for q in range(1, order + 1):
                assert abs(self._quadrature(row, self.C[:12], q)) <= 1e-14


class TestOneStep:
    """The first step of the fused stage arithmetic against the textbook step."""

    @staticmethod
    def _start(kind):
        rng = np.random.default_rng(17)
        if kind == "dense":
            H = rng.uniform(-1.0, 1.0, (5, 5))
            H = H + H.T
            H /= np.linalg.norm(H) / np.sqrt(2.0)
            return H, kernels.integrate_dense_kernel, jacobi.rhs_matrix, 1.0
        a = rng.uniform(0.5, 2.0, 6) * rng.choice([-1.0, 1.0], 6)
        if kind == "log_zero":
            a[2] = 0.0
        # the kernel takes v and steps w = 2 v in s = 2 tau, on the scale
        # tol * (2 + |w|)
        return (_log_chart(a), kernels.integrate_offdiag_kernel,
                jacobi.log_chart_rhs(6)[0], 2.0)

    @pytest.mark.parametrize("kind", ["log", "log_zero", "dense"])
    def test_first_step_matches_the_textbook_step(self, kind):
        y0, kernel, rhs, unit = self._start(kind)
        tol = 1e-6
        times, states, count, status, naccept, nreject = kernel(
            y0, 100.0, tol, 0.0, 10_000)
        assert status == kernels.STATUS_HORIZON and count == naccept + 1
        # the first trial step, 1e-3 * t_max, is taken: a NaN or too large
        # error norm would have rejected it. A step this long tells the
        # tableaus apart: a 5(4) step misses the textbook one by ten times the
        # rounding allowed below or more.
        assert times[1] == 0.1
        y0 = unit * y0
        want, err5, err3 = dop853_step(rhs, y0, unit * times[1])
        scale = unit * tol + tol * np.maximum(np.abs(y0), np.abs(want))
        n5, n3 = np.sum((err5 / scale) ** 2), np.sum((err3 / scale) ** 2)
        assert n5 / np.sqrt((n5 + 0.01 * n3) * y0.size) <= 1.0
        got, live = unit * states[1], np.isfinite(want)
        # a zero entry stays exactly at -inf
        assert np.array_equal(np.isfinite(got), live) and np.all(got[~live] == -np.inf)
        assert np.abs(got[live] - want[live]).max() <= 1e-14 * np.abs(want[live]).max()


def _thinned_steps(naccept, max_rows):
    """The accepted steps a run of naccept steps records under max_rows, and
    its final stride: step 0 is t=0, step naccept the final state. Every
    stride-th step is recorded; a step due when max_rows rows are held first
    drops every other row after t=0 and doubles the stride, and is then
    recorded only if it is still due."""
    steps, stride = [0], 1
    for j in range(1, naccept + 1):
        if len(steps) == max_rows and (j % stride == 0 or j == naccept):
            del steps[1::2]
            stride *= 2
        if j % stride == 0 or j == naccept:
            steps.append(j)
    return steps, stride


class TestRecording:
    def test_decimation_keeps_t0_and_final(self):
        v0 = _log_chart([5.0, -6.0, -2.0])
        t_max = 100.0  # long enough to take more steps than rows
        times, states, count, status, naccept, _ = kernels.integrate_offdiag_kernel(
            v0, t_max, 1e-10, 0.0, 32)
        assert count <= 32
        assert times[0] == 0.0
        assert times[count - 1] == t_max
        assert naccept > 32  # decimation actually happened

    @pytest.mark.parametrize("max_rows", [2, 3, 7, 8])
    @pytest.mark.parametrize("shape", ["offdiag", "dense"])
    def test_capped_rows_are_the_thinned_uncapped_rows(self, shape, max_rows):
        if shape == "offdiag":
            y0, kernel = _log_chart([5.0, -6.0, -2.0]), kernels.integrate_offdiag_kernel
        else:
            H = np.random.default_rng(3).normal(size=(5, 5))
            y0, kernel = 0.5 * (H + H.T), kernels.integrate_dense_kernel
        t_max = 100.0  # no residual is 0, so both runs end on the horizon
        u_times, u_states, _, status, naccept, _ = kernel(y0, t_max, 1e-10, 0.0, 10**12)
        times, states, count, _, _, _ = kernel(y0, t_max, 1e-10, 0.0, max_rows)
        assert status == kernels.STATUS_HORIZON and naccept > 4 * max_rows
        # uncapped, row j is accepted step j
        assert u_times.shape == (naccept + 1,) and np.all(np.diff(u_times) > 0)
        assert len(times) == len(states) == count <= max_rows
        assert states.shape == (count,) + y0.shape
        assert times[0] == 0.0 and times[-1] == t_max
        np.testing.assert_array_equal(states[0], y0)
        np.testing.assert_array_equal(states[-1], u_states[-1])
        steps, stride = _thinned_steps(naccept, max_rows)
        np.testing.assert_array_equal(times, u_times[steps])
        np.testing.assert_array_equal(states, u_states[steps])
        # the kept rows sit on the final stride, odd caps included
        assert all(j % stride == 0 for j in steps[1:-1])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_underflow_status(self):
        v0 = _log_chart([5.0, -6.0, -2.0])
        with pytest.raises(NonConvergence, match="adaptive step fell below 1e-14"):
            kernels.integrate_offdiag_kernel(v0, 1.0, 1e-300, 0.0, 64)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nan_step_is_underflow(self):
        # the slope overflows, so the start step set from it is itself NaN
        # or 0: the run stops before its first step
        H = np.array([[0.0, 1e200, 0.0], [1e200, 0.0, 2e200], [0.0, 2e200, 0.0]])
        with pytest.raises(NonConvergence, match="adaptive step fell below 1e-14"):
            kernels.integrate_dense_kernel(H, 1.0, 1e-10, 0.0, 64)

    @pytest.mark.parametrize("shape", ["offdiag", "dense"])
    def test_budget_is_spent_after_max_steps(self, shape, monkeypatch):
        # MAX_STEPS is read at call time: the run raises after the first
        # slope and its 20 steps. A step makes 11 field calls, k2 ... k12,
        # and an accepted one a 12th, k13 = f(y_new), the next k1; the stop
        # test asks resid2 once per accepted step
        if shape == "offdiag":
            name, kernel = "log_chart_rhs", kernels.integrate_offdiag_kernel
            y0 = _log_chart([5.0, -6.0, -2.0])
        else:
            name, kernel = "_dense_field", kernels.integrate_dense_kernel
            H = np.random.default_rng(3).normal(size=(5, 5))
            y0 = 0.5 * (H + H.T)
        field, calls, accepted = getattr(kernels, name), [], []

        def counting(*args):
            rhs, resid2 = field(*args)

            def counted(y, out):
                calls.append(None)
                return rhs(y, out=out)

            def asked():
                accepted.append(None)
                return resid2()
            return counted, asked

        monkeypatch.setattr(kernels, name, counting)
        monkeypatch.setattr(kernels, "MAX_STEPS", 20)
        with pytest.raises(NonConvergence, match="adaptive run took 20 steps before t_max"):
            kernel(y0, 100.0, 1e-10, 0.0, 10_000)
        naccept = len(accepted)
        assert 0 < naccept < 20
        assert len(calls) == 1 + 12 * naccept + 11 * (20 - naccept)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_stage_rejects_and_shrinks_the_step(self):
        # an overflowing stage makes the error estimate non-finite: the trial
        # step is rejected and shrunk by _FAC_MIN, and the run goes on
        w0 = 2.0 * _log_chart([5.0, -6.0, -2.0])
        field, resid2 = jacobi.log_chart_rhs(3)
        calls = []

        def rhs(v, out):
            field(v, out=out)
            calls.append(None)
            if len(calls) == 3:  # k3 of the first trial step
                out[:] = np.inf
            return out

        t_max = 2.0
        times, states, count, status, naccept, nreject = kernels._integrate(
            w0, rhs, resid2, t_max, 1e-10, 0.0, 1000, unit=2.0)
        assert status == kernels.STATUS_HORIZON and nreject >= 1
        assert times[1] == 1e-3 * t_max * kernels._FAC_MIN
        assert np.all(np.isfinite(states[:count]))
