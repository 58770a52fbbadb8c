import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kvmflow import flow, jacobi, kernels, spectral
from kvmflow.errors import NonConvergence, StepUnderflow, ValidationFailure
from kvmflow.verify import trajectory_checks, verify_run


def _random_valid_state(rng, n):
    while True:
        a = rng.uniform(0.5, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        try:
            spectral.spectrum_zero_diag(a)
        except Exception:
            continue
        return a


class TestConfig:
    @pytest.mark.parametrize("bad", [
        dict(method="euler"),
        dict(t_max=0.0),
        dict(dt=-1e-3),
        dict(abs_tol=0.0),
        dict(eq_eps=-1.0),
        dict(record_stride=0),
        dict(max_rows=1),
        dict(method="adaptive_rk45"),
        dict(method="fixed_rk4"),
        dict(t_max=float("nan")),
        dict(t_max=float("inf")),
        dict(dt=float("nan")),
        dict(eq_eps=float("nan")),
        dict(abs_tol=float("inf")),
        dict(rel_tol=float("inf")),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationFailure):
            flow.IntegratorConfig(**bad).validated()


class TestIntegrate:
    def test_example1_reaches_limit_by_t1(self, ex1):
        traj = flow.integrate(ex1, flow.IntegratorConfig(t_max=1.0))
        assert np.abs(traj.final_state - [1.26, 0.0, -7.96]).max() < 0.01

    def test_equilibrium_input_is_stationary(self):
        traj = flow.integrate([1.26, 0.0, -7.96])
        assert traj.status == "stationary_input"
        assert traj.times.size == 1
        assert traj.k_norms[0] == 0.0
        assert traj.spectrum is None

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3"])
    @pytest.mark.parametrize("validate", [True, False])
    def test_carries_reference_spectrum(self, request, name, validate):
        a0 = request.getfixturevalue(name)
        traj = flow.integrate(a0, flow.IntegratorConfig(t_max=0.1), validate=validate)
        np.testing.assert_array_equal(traj.spectrum.values,
                                      spectral.spectrum_zero_diag(a0).values)
        # an oracle outside the bisection: the spectrum of a0 itself
        tol = 1e-12 * (1.0 + np.sqrt(2.0) * np.linalg.norm(a0))
        np.testing.assert_allclose(traj.spectrum.values,
                                   np.linalg.eigvalsh(jacobi.embed(a0)), rtol=0, atol=3 * tol)

    def test_n2_is_stationary(self):
        traj = flow.integrate([0.7])
        assert traj.status == "stationary_input"

    def test_n1_is_stationary(self):
        traj = flow.integrate([])
        assert traj.status == "stationary_input"

    def test_zero_entry_rejected(self):
        with pytest.raises(ValidationFailure):
            flow.integrate([1.0, 0.0, 0.5, 2.0])

    def test_zero_entry_allowed_without_validation(self):
        traj = flow.integrate([1.0, 0.0, 0.5, 2.0], validate=False)
        assert traj.status == "converged"
        # zero entries are per-component equilibria and stay exactly zero
        assert np.all(traj.states[:, 1] == 0.0)

    def test_near_degenerate_spectrum_rejected(self):
        with pytest.raises(ValidationFailure):
            flow.integrate([1.0, 1e-9, 1.0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_step_underflow(self, ex1):
        cfg = flow.IntegratorConfig(abs_tol=1e-300, rel_tol=1e-300, t_max=1.0)
        with pytest.raises(StepUnderflow):
            flow.integrate(ex1, cfg)

    @pytest.mark.parametrize("a0", ["ex1", "ex3"])
    @pytest.mark.parametrize("dt", [1e-20, 1e-13, 1e-300])
    def test_tiny_rk45_trial_step_starts_at_the_floor(self, request, a0, dt):
        # a trial step below 1e-14 * t_max is raised to it, not refused
        report = verify_run(request.getfixturevalue(a0), flow.IntegratorConfig(dt=dt))
        assert report.overall, [c for c in report.checks if not c.passed]
        assert report.meta["status"] in {"converged", "horizon_reached"}

    @pytest.mark.parametrize("dt", [0.5, 10.0, 1e300])
    def test_overflowing_trial_step_is_rejected(self, ex1, dt):
        # the first trial step overflows, its error estimate is NaN, and the
        # step must shrink instead of becoming NaN
        report = verify_run(ex1, flow.IntegratorConfig(dt=dt))
        assert report.overall, [c for c in report.checks if not c.passed]
        assert report.meta["status"] == "converged"

    @pytest.mark.parametrize("a0", [[1e200, 1e200, 1e200]])
    def test_non_finite_initial_state_rejected(self, a0):
        # the squared norm overflows
        with pytest.raises(ValidationFailure, match="out of range"):
            flow.integrate(a0, flow.IntegratorConfig(eq_eps=1.0))

    def test_squared_norm_near_the_float_limit_converges(self):
        # ||a0||^2 = 2e300 is finite; the residual of a0 itself (1.4e300)
        # is too, though its square is not. tau_max = ||a0||^2 t_max = 200.
        a0 = np.array([1e150, 1e150])
        traj = flow.integrate(a0, flow.IntegratorConfig(t_max=1e-298))
        assert traj.status == "converged"
        assert np.all(np.isfinite(traj.states)) and np.all(np.isfinite(traj.k_norms))
        np.testing.assert_allclose(traj.final_state, [0.0, np.sqrt(2.0) * 1e150],
                                   rtol=0, atol=1e-9 * np.sqrt(2.0) * 1e150)

    def test_underflowing_squared_norm_rejected(self):
        # not a stationary input: ||a0||^2 = 3e-400 is not a normal float
        with pytest.raises(ValidationFailure, match="out of range"):
            flow.integrate([1e-200, 1e-200, 1e-200])

    @pytest.mark.parametrize("factor, t_max", [(1e-100, 1e200), (1e100, 1e-200)])
    def test_scaled_input_converges_to_the_scaled_limit(self, ex1, factor, t_max):
        # the flow from c*b is c*b(c^2 t)
        unscaled = flow.integrate(ex1)
        traj = flow.integrate(ex1 * factor, flow.IntegratorConfig(t_max=t_max))
        assert unscaled.status == traj.status == "converged"
        np.testing.assert_allclose(traj.final_state / factor, unscaled.final_state,
                                   rtol=0, atol=1e-9 * np.linalg.norm(ex1))

    def test_diverging_fixed_step_raises(self, ex1):
        cfg = flow.IntegratorConfig(method="rk4", dt=0.5)
        with pytest.raises(NonConvergence, match="diverged"):
            flow.integrate(ex1, cfg)

    def test_times_strictly_increasing_from_zero(self, ex2):
        traj = flow.integrate(ex2, flow.IntegratorConfig(t_max=1.0))
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        np.testing.assert_array_equal(traj.states[0], ex2)

    def test_row_cap_with_decimation(self, ex2):
        cfg = flow.IntegratorConfig(t_max=1.0, max_rows=50, eq_eps=0.0)
        traj = flow.integrate(ex2, cfg)
        assert traj.times.size <= 50
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_record_stride_thins_rows(self, ex2):
        dense_rows = flow.integrate(ex2, flow.IntegratorConfig(t_max=0.5, eq_eps=0.0))
        sparse = flow.integrate(
            ex2, flow.IntegratorConfig(t_max=0.5, eq_eps=0.0, record_stride=10))
        assert sparse.times.size < dense_rows.times.size
        assert sparse.times[-1] == pytest.approx(0.5, abs=1e-12)

    def test_status_converged_waits_for_residual(self, ex1):
        traj = flow.integrate(ex1, flow.IntegratorConfig(t_max=100.0))
        assert traj.status == "converged"
        assert traj.k_norms[-1] <= traj.eq_eps


class TestInvariants:
    def test_random_runs_keep_every_invariant(self):
        rng = np.random.default_rng(77)
        for n in range(3, 9):
            for _ in range(5):
                a0 = _random_valid_state(rng, n)
                traj = flow.integrate(a0, flow.IntegratorConfig(
                    t_max=150.0, eq_eps=1e-9 * (1 + np.sum(a0 * a0)), max_rows=200))
                assert traj.status == "converged"
                for check in trajectory_checks(traj, a0):
                    assert check.passed, (n, check)

    def test_odd_n_last_component_magnitude_nondecreasing(self):
        rng = np.random.default_rng(5)
        for n in (5, 7, 9):
            a0 = _random_valid_state(rng, n)
            traj = flow.integrate(a0, flow.IntegratorConfig(t_max=50.0))
            tail = np.abs(traj.states[:, -1])
            slack = 1e-9 * (1 + tail.max())
            assert np.all(np.diff(tail) >= -slack)

    def test_converged_state_matches_prediction(self):
        rng = np.random.default_rng(11)
        for n in range(3, 9):
            a0 = _random_valid_state(rng, n)
            spec = spectral.spectrum_zero_diag(a0)
            traj = flow.integrate(a0, flow.IntegratorConfig(
                t_max=200.0, eq_eps=1e-10 * (1 + np.sum(a0 * a0))))
            if traj.status != "converged":
                continue
            pred = spectral.predict_limit(a0, spec)
            assert np.abs(traj.final_state - pred).max() <= 1e-6 * (
                1 + np.linalg.norm(a0))

    def test_fixed_step_and_adaptive_agree_at_t1(self, ex1):
        rk4 = flow.integrate(ex1, flow.IntegratorConfig(
            method="rk4", dt=1e-4, t_max=1.0, eq_eps=0.0))
        rk45 = flow.integrate(ex1, flow.IntegratorConfig(t_max=1.0, eq_eps=0.0))
        assert rk4.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert rk45.times[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(rk4.final_state - rk45.final_state).max() <= 1e-6


@st.composite
def _oracle_input(draw):
    """n in 3..8, entries +-U[0.5, 10], squared magnitudes (and, for odd n,
    the smallest one) at least 0.35 apart: the rule of the oracle suite."""
    n = draw(st.integers(3, 8))
    mags = draw(st.lists(st.floats(0.5, 10.0), min_size=n - 1, max_size=n - 1))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n - 1, max_size=n - 1))
    b = np.array(mags) * np.array(signs)
    sq = np.linalg.eigvalsh(jacobi.embed(b))[n - n // 2:] ** 2
    gaps = np.concatenate([sq[:1], np.diff(sq)]) if n % 2 else np.diff(sq)
    assume(gaps.min() >= 0.35)
    return b


class TestScaleInvariance:
    """The flow from 10^k b is 10^k b(10^(2k) t): a scaled run must repeat the
    unscaled one, whatever the scale."""

    @settings(max_examples=40)
    @given(_oracle_input(), st.integers(-150, 150))
    def test_scaled_run_repeats_the_unscaled_run(self, b, k):
        scale = 10.0 ** k
        plain = verify_run(b, flow.IntegratorConfig(t_max=150.0, max_rows=160))
        scaled = verify_run(b * scale, flow.IntegratorConfig(
            t_max=150.0 * 10.0 ** (-2 * k), max_rows=160))
        assert scaled.meta["status"] == plain.meta["status"] != "stationary_input"
        dev = np.abs(scaled.meta["final_offdiag"] / scale - plain.meta["final_offdiag"])
        assert dev.max() <= 1e-9 * np.linalg.norm(b)
        assert scaled.overall == plain.overall


class TestDetectConvergence:
    def _traj(self, k_norms):
        m = len(k_norms)
        return flow.FlowTrajectory(
            times=np.arange(m, dtype=float),
            states=np.zeros((m, 2)),
            f_values=np.zeros(m),
            k_norms=np.array(k_norms, dtype=float),
            spec_drift=np.zeros(m),
            status="horizon_reached",
            config=flow.IntegratorConfig(),
            eq_eps=1e-10,
        )

    def test_all_zero(self):
        assert flow.detect_convergence(self._traj([0.0, 0.0, 0.0]), 1e-10, 3)

    def test_window_two(self):
        traj = self._traj([1e-3, 1e-12, 1e-12])
        assert flow.detect_convergence(traj, 1e-10, 2)

    def test_window_three(self):
        traj = self._traj([1e-3, 1e-12, 1e-12])
        assert not flow.detect_convergence(traj, 1e-10, 3)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            flow.detect_convergence(self._traj([0.0]), 1e-10, 0)


class TestIntegrateDense:
    @pytest.mark.parametrize("method", ["rk45"])
    def test_matches_componentwise_integrator(self, ex1, method):
        cfg = flow.IntegratorConfig(method=method, t_max=1.0, eq_eps=0.0)
        dense = flow.integrate_dense(jacobi.embed(ex1), cfg)
        compact = flow.integrate(ex1, cfg)
        got = np.diagonal(dense.final_state, 1)
        assert np.abs(got - compact.final_state).max() <= 1e-8

    def test_rk4_is_fourth_order_against_a_dense_reference(self, ex1):
        # rk4 on the log chart and rk4 on the matrix truncate differently, so
        # the compact rk4 run is measured against a tight dense rk45 run
        tight = flow.IntegratorConfig(t_max=1.0, eq_eps=0.0, abs_tol=1e-14, rel_tol=1e-14)
        ref = np.diagonal(flow.integrate_dense(jacobi.embed(ex1), tight).final_state, 1)
        errors = []
        for dt in (1e-3, 5e-4):
            cfg = flow.IntegratorConfig(method="rk4", dt=dt, t_max=1.0, eq_eps=0.0)
            errors.append(np.abs(flow.integrate(ex1, cfg).final_state - ref).max())
        assert errors[0] / errors[1] >= 12.0  # 16 for a fourth-order method
        assert errors[1] <= 5e-8

    def test_diagonal_matrix_is_stationary(self):
        traj = flow.integrate_dense(np.diag([3.0, -1.0, 2.0]))
        assert traj.status == "stationary_input"

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationFailure):
            flow.integrate_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_random_symmetric_invariants(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            H = rng.normal(size=(5, 5))
            H = 0.5 * (H + H.T)
            traj = flow.integrate_dense(H, flow.IntegratorConfig(t_max=2.0))
            assert traj.spec_drift.max() <= 1e-7
            f_scale = 1 + np.abs(traj.f_values).max()
            assert np.all(np.diff(traj.f_values) >= -1e-9 * f_scale)

    def test_block_structure_of_converged_tridiagonal(self, ex1):
        traj = flow.integrate_dense(jacobi.embed(ex1),
                                    flow.IntegratorConfig(t_max=30.0))
        assert traj.final_blocks == [2, 2]

    def test_non_finite_initial_state_rejected(self):
        H = [[0.0, 1e200, 0.0], [1e200, 0.0, 2e200], [0.0, 2e200, 0.0]]
        with pytest.raises(ValidationFailure, match="out of range"):
            flow.integrate_dense(H)

    def test_diverging_fixed_step_raises(self):
        H = np.random.default_rng(8).normal(size=(8, 8))
        cfg = flow.IntegratorConfig(method="rk4", dt=0.5, t_max=5.0)
        with pytest.raises(NonConvergence, match="diverged"):
            flow.integrate_dense(0.5 * (H + H.T), cfg)

    def test_is_a_flow_trajectory(self, ex1):
        traj = flow.integrate_dense(jacobi.embed(ex1), flow.IntegratorConfig(t_max=0.1))
        assert isinstance(traj, flow.FlowTrajectory)
        assert traj.n == 4

    def test_block_structure_reader(self):
        H = np.zeros((5, 5))
        H[0, 1] = H[1, 0] = 2.0
        assert flow.block_structure(H, 1e-9) == [2, 1, 1, 1]


def _counting(monkeypatch, module, name):
    """Replace module.name with a wrapper that counts its calls."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


class TestCallTimeLookup:
    """The drivers look kernels and diagnostics up by name on every call, so a
    wrapper installed on the module attribute (as a tracer does) sees them."""

    def test_integrate_calls_patched_attributes(self, monkeypatch, ex1):
        kernel = _counting(monkeypatch, kernels, "integrate_offdiag_kernel")
        reference = _counting(monkeypatch, flow, "spectrum_zero_diag")
        drift = _counting(monkeypatch, flow, "batch_eigenvalues_zero_diag")
        lyap = _counting(monkeypatch, flow, "lyapunov_f_offdiag")
        resid = _counting(monkeypatch, flow, "residual_norms")
        flow.integrate(ex1, flow.IntegratorConfig(t_max=0.1))
        assert len(kernel) == 1
        assert len(reference) == 1 and len(drift) == 1
        assert lyap and resid

    def test_integrate_dense_calls_patched_kernel(self, monkeypatch, ex1):
        kernel = _counting(monkeypatch, kernels, "integrate_dense_kernel")
        flow.integrate_dense(jacobi.embed(ex1), flow.IntegratorConfig(t_max=0.1))
        assert len(kernel) == 1
