import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kvmflow import flow, jacobi, kernels, spectral
from kvmflow.errors import NonConvergence, ValidationFailure
from kvmflow.verify import trajectory_checks, verify_run

from conftest import EX1, EX2, EX3, count_steps


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
        dict(t_max=0.0),
        dict(tol=0.0),
        dict(eq_eps=-1.0),
        dict(tol=-1e-10),
        dict(max_rows=1),
        dict(t_max=float("nan")),
        dict(t_max=float("inf")),
        dict(eq_eps=float("nan")),
        dict(tol=float("inf")),
        dict(tol=float("-inf")),
        dict(eq_eps=float("inf")),
        dict(t_max=-1.0),
        dict(max_rows=-1),
        dict(tol=float("nan")),
        dict(eq_eps=float("-inf")),
        dict(t_max=float("-inf")),
        dict(max_rows=0),
        dict(max_rows=2.5),
        dict(max_rows=160.0),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValidationFailure):
            flow.IntegratorConfig(**bad)


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

    def test_n1_is_stationary(self, monkeypatch):
        kernel = _counting(monkeypatch, kernels, "integrate_offdiag_kernel")
        traj = flow.integrate([])
        assert traj.status == "stationary_input"
        assert kernel == []  # the stepper never sees an empty state

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
        cfg = flow.IntegratorConfig(tol=1e-300, t_max=1.0)
        with pytest.raises(NonConvergence, match="adaptive step fell below 1e-14"):
            flow.integrate(ex1, cfg)

    @pytest.mark.parametrize("a0, t_max", [([5.0, -6.0, -2.0], 1e12),
                                           ([1e150, 1e150], 10.0)])
    def test_horizon_far_beyond_the_time_scale_converges(self, a0, t_max):
        # the step floor follows the run's time scale 1 / ||a0||^2, not t_max
        traj = flow.integrate(a0, flow.IntegratorConfig(t_max=t_max))
        assert traj.status == "converged"
        assert traj.times[-1] < t_max

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

    def test_times_strictly_increasing_from_zero(self, ex2):
        traj = flow.integrate(ex2, flow.IntegratorConfig(t_max=1.0))
        assert traj.times[0] == 0.0
        assert np.all(np.diff(traj.times) > 0)
        np.testing.assert_array_equal(traj.states[0], ex2)

    def test_row_cap_with_decimation(self, ex2):
        cfg = flow.IntegratorConfig(t_max=1.0, max_rows=50, eq_eps=0.0)
        traj = flow.integrate(ex2, cfg)
        assert traj.times.size == 37
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 1.0

    @pytest.mark.parametrize("case", ["ex1", "dense120"])
    def test_huge_row_cap_is_the_default_run(self, ex1, case):
        # the kernel holds only the rows it records, so a cap of 10**12 rows
        # reserves nothing: a 120x120 at this cap once asked for 107 GiB
        if case == "ex1":
            run, x0, t_max = flow.integrate, ex1, 10.0
        else:
            run, x0, t_max = flow.integrate_dense, _rng3_symmetric(120), 1e-6
        huge = run(x0, flow.IntegratorConfig(t_max=t_max, max_rows=10**12))
        default = run(x0, flow.IntegratorConfig(t_max=t_max))
        np.testing.assert_array_equal(huge.times, default.times)
        np.testing.assert_array_equal(huge.states, default.states)

    def test_dense_run_holds_only_its_recorded_rows(self):
        # numpy reports its buffers to tracemalloc; a buffer of max_rows
        # 40x40 states would be 128 MB
        H = _rng3_symmetric(40)
        tracemalloc.start()
        try:
            traj = flow.integrate_dense(H, flow.IntegratorConfig(t_max=1e-6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.status == "horizon_reached"
        assert peak < 2e6

    def test_status_converged_waits_for_residual(self, ex1):
        traj = flow.integrate(ex1, flow.IntegratorConfig(t_max=100.0))
        assert traj.status == "converged"
        assert traj.k_norms[-1] <= traj.eq_eps


def _rng3_symmetric(n):
    H = np.random.default_rng(3).normal(size=(n, n))
    return 0.5 * (H + H.T)


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


def _oracle_inputs(seed, count):
    """n cycling 3..12, entries +-U[0.5, 10], squared magnitudes (and, for
    odd n, the smallest one) at least 0.35 apart: the oracle workload's draw."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = 3 + len(out) % 10
        a0 = rng.uniform(0.5, 10.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        sq = np.linalg.eigvalsh(jacobi.embed(a0))[n - n // 2:] ** 2
        gaps = np.concatenate([sq[:1], np.diff(sq)]) if n % 2 else np.diff(sq)
        if gaps.min() >= 0.35:
            out.append(a0)
    return out


class TestSpectralDrift:
    """spec_drift against LAPACK: the largest |eigvalsh(embed(row)) - spectrum|
    of every recorded row, within 2 * tol * ||a0|| (tol the unit-row
    eigensolver tolerance; row 0 reads 0 by definition)."""

    @staticmethod
    def _assert_drift_matches_eigvalsh(traj, a0):
        tol = spectral.default_eig_tol(np.sqrt(2.0))
        want = np.array([np.abs(np.linalg.eigvalsh(jacobi.embed(row)) - traj.spectrum.values).max()
                         for row in traj.states])
        assert traj.spec_drift[0] == 0.0
        assert np.abs(traj.spec_drift - want).max() <= 2.0 * tol * np.linalg.norm(a0)

    @pytest.mark.parametrize("a0,cfg", [
        (EX1, dict(t_max=1.0, tol=1e-14, eq_eps=0.0)),
        (EX2, dict(t_max=1.0, tol=1e-14, eq_eps=0.0)),
        (EX3, dict()),
    ])
    def test_examples(self, a0, cfg):
        traj = flow.integrate(a0, flow.IntegratorConfig(**cfg))
        assert len(traj.times) > 100
        self._assert_drift_matches_eigvalsh(traj, a0)

    def test_oracle_inputs(self):
        for a0 in _oracle_inputs(seed=1, count=50):
            traj = flow.integrate(a0, flow.IntegratorConfig(
                t_max=150.0, eq_eps=1e-9 * (1.0 + np.sum(a0 * a0)), max_rows=160))
            assert traj.status == "converged"
            self._assert_drift_matches_eigvalsh(traj, a0)


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


class TestIntegrateDense:
    @pytest.mark.parametrize("scale", [1.0, 1e-100, 1e100])
    def test_matches_componentwise_integrator(self, ex1, scale):
        cfg = flow.IntegratorConfig(t_max=1.0, eq_eps=0.0)
        scaled_cfg = flow.IntegratorConfig(t_max=1.0 / scale**2, eq_eps=0.0)
        dense = flow.integrate_dense(scale * jacobi.embed(ex1), scaled_cfg)
        compact = flow.integrate(ex1, cfg)
        got = np.diagonal(dense.final_state, 1) / scale
        assert np.abs(got - compact.final_state).max() <= 1e-8

    @pytest.mark.parametrize("scale", [1e-100, 1e100])
    @pytest.mark.parametrize("case", ["ex1", "random"])
    def test_scaled_matrix_repeats_the_unscaled_run(self, ex1, case, scale):
        # the flow from s * H is s * H(s^2 t), and final_blocks has no
        # absolute threshold
        if case == "ex1":
            H, t_max = jacobi.embed(ex1), 30.0
        else:
            H = np.random.default_rng(3).normal(size=(5, 5))
            H, t_max = 0.5 * (H + H.T), 2.0
        plain = flow.integrate_dense(H, flow.IntegratorConfig(t_max=t_max))
        scaled = flow.integrate_dense(scale * H, flow.IntegratorConfig(
            t_max=t_max / scale**2))
        assert scaled.status == plain.status != "stationary_input"
        assert scaled.final_blocks == plain.final_blocks
        dev = np.abs(scaled.final_state / scale - plain.final_state).max()
        assert dev <= 1e-9 * np.abs(plain.final_state).max()

    def test_diagonal_matrix_is_stationary(self):
        traj = flow.integrate_dense(np.diag([3.0, -1.0, 2.0]))
        assert traj.status == "stationary_input"

    def test_asymmetric_rejected(self):
        with pytest.raises(ValidationFailure):
            flow.integrate_dense(np.array([[0.0, 1.0], [2.0, 0.0]]))

    @pytest.mark.parametrize("H", [np.zeros((2, 3)), np.zeros(4), np.zeros((0, 0))],
                             ids=["2x3", "vector", "empty"])
    def test_non_square_rejected(self, H):
        with pytest.raises(ValidationFailure, match=r"^expected a nonempty square matrix"):
            flow.integrate_dense(H)

    def test_asymmetric_tiny_matrix_rejected(self):
        # a 200 % defect is no rounding error, whatever the matrix's scale
        H = 1e-100 * np.array([[0.0, 1.0, 0.0], [3.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with pytest.raises(ValidationFailure, match="not symmetric"):
            flow.integrate_dense(H)

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

    def test_is_a_flow_trajectory(self, ex1):
        traj = flow.integrate_dense(jacobi.embed(ex1), flow.IntegratorConfig(t_max=0.1))
        assert isinstance(traj, flow.FlowTrajectory)
        assert traj.n == 4

    def test_block_structure_reader(self):
        H = np.zeros((5, 5))
        H[0, 1] = H[1, 0] = 2.0
        assert flow.block_structure(H, 1e-9) == [2, 1, 1, 1]


class TestStepBudget:
    """kernels.MAX_STEPS bounds the work of every run; it is read at call time."""

    def test_dense_run_stops_at_the_budget(self, monkeypatch):
        monkeypatch.setattr(kernels, "MAX_STEPS", 100)
        H = np.random.default_rng(3).normal(size=(5, 5))
        with pytest.raises(NonConvergence, match="took 100 steps before t_max"):
            flow.integrate_dense(0.5 * (H + H.T), flow.IntegratorConfig(t_max=200.0))

    def test_offdiag_run_stops_at_the_budget(self, monkeypatch, ex1):
        # ex1 takes 40 steps to converge
        monkeypatch.setattr(kernels, "MAX_STEPS", 30)
        with pytest.raises(NonConvergence, match="took 30 steps before t_max"):
            flow.integrate(ex1, flow.IntegratorConfig(t_max=200.0))


class TestStepCounts:
    """The default config takes DOP853's pinned steps on the paper's examples:
    a change of the tableau, the error norm or the controller moves them."""

    @pytest.mark.parametrize("a0,counts", [(EX1, (39, 1)), (EX2, (77, 2)),
                                           (EX3, (256, 3))])
    def test_examples_take_the_pinned_steps(self, monkeypatch, a0, counts):
        steps = count_steps(monkeypatch)
        flow.integrate(a0)
        assert steps == [counts]

    # (recorded rows, final time, final state, (last Lyapunov value, last
    # residual, largest drift)) of the default run, as float.hex: a change of
    # any rounding in the stepper or the diagnostics moves them
    PINNED = {
        "ex1": (40, "0x1.153c089757c79p-1", [
            "0x1.41739b378ea72p+0", "-0x1.ef28b1742ff38p-44", "-0x1.fdb01d6420febp+2"],
            ("0x1.d58b9c1138965p+4", "0x1.60dae45b64bb4p-40", "0x1.b4cf83d5007bdp-38")),
        "ex2": (78, "0x1.ad26068324475p+1", [
            "-0x1.b69384253620ep-3", "0x1.f60473482f966p-35", "0x1.5b496f63afb88p+1",
            "-0x1.0196197fa898fp-485", "-0x1.4f8403899e1a1p+3", "-0x1.8c00e02433d8cp-209",
            "0x1.8aed287de532ep+3", "0x1.950755e313fbbp-260", "0x1.cbace1a7f0b99p+3"],
            ("0x1.20239ba03b2e6p+11", "0x1.e30f42877d629p-33", "0x1.3006ef0ae37cap-35")),
        "ex3": (257, "0x1.4000000000000p+3", [
            "-0x1.850201f82826bp-115", "0x1.6740f7e989d7fp+1", "-0x1.96a9d6316e706p-21",
            "0x1.7d3eaee003a19p+1", "-0x1.d22ca8a4a8493p-108", "0x1.0ad958fdc99d8p+2",
            "-0x1.9b1c7a340ec67p-67", "0x1.2a4388b38a22ep+2", "-0x1.9631d2d8df825p-26",
            "0x1.35781f2e069bfp+2", "0x1.68ca29d53185ep-222", "-0x1.90802414f79fep+2",
            "0x1.fa1f13a805551p-664", "0x1.29366df7e5435p+3", "0x1.164eabfdf6eb5p-444",
            "-0x1.5aff47b329fa6p+3", "-0x1.5c142763873b4p-234", "0x1.711c408ae3763p+3",
            "-0x1.070bbd1758976p-85", "0x1.7a75232fbfd67p+3", "0x1.2ec3983f3d192p-235",
            "0x1.8f3b867fdd68dp+3", "0x0.0p+0", "0x1.11baca9eec9afp+4",
            "-0x1.69bc1076eb59dp-455", "0x1.1fb18409eb7f8p+4", "-0x1.7dc9296ec0460p-459",
            "-0x1.2d8a92c1e1895p+4"],
            ("0x1.082304bcc9eefp+15", "0x1.26975ae644e44p-18", "0x1.eac93549ec7e2p-32")),
    }

    @pytest.mark.parametrize("max_rows,rows", [(2, 2), (3, 3), (7, 5)])
    def test_row_cap_keeps_the_pinned_rows(self, max_rows, rows):
        # ex3 takes 256 accepted steps; the thinning keeps this many of them
        traj = flow.integrate(EX3, flow.IntegratorConfig(max_rows=max_rows))
        assert len(traj.times) == len(traj.states) == rows
        assert traj.times[0] == 0.0 and traj.times[-1] == 10.0

    @pytest.mark.parametrize("name,a0", [("ex1", EX1), ("ex2", EX2), ("ex3", EX3)])
    def test_examples_end_on_the_pinned_bits(self, name, a0):
        rows, t_end, final, diagnostics = self.PINNED[name]
        traj = flow.integrate(a0)
        assert len(traj.times) == len(traj.states) == rows
        assert traj.times[-1].hex() == t_end
        assert [x.hex() for x in traj.final_state] == final
        assert (traj.f_values[-1].hex(), traj.k_norms[-1].hex(),
                traj.spec_drift.max().hex()) == diagnostics


class TestAccuracy:
    """At the default tolerances the state at a fixed horizon lies near the
    same run at 1e-13."""

    # measured max |a - a_tight| / ||a0||: 6.2e-13 (ex1), 1.0e-12 (ex2),
    # 9.3e-12 (ex3); each bound is about 3x that. The Dormand-Prince 5(4)
    # stepper this one replaced measured 1.4e-12, 1.3e-11 and 1.2e-10.
    @pytest.mark.parametrize("a0,bound", [(EX1, 2e-12), (EX2, 3e-12), (EX3, 3e-11)])
    def test_final_state_is_near_the_tight_run(self, a0, bound):
        runs = [flow.integrate(a0, flow.IntegratorConfig(
                    t_max=3.0, eq_eps=0.0, tol=tol))
                for tol in (1e-10, 1e-13)]
        assert [r.status for r in runs] == ["horizon_reached"] * 2
        dev = np.abs(runs[0].final_state - runs[1].final_state).max()
        assert dev <= bound * np.linalg.norm(a0)


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
    wrapper installed on the module attribute (as a tracer does) sees them.
    The diagnostics are computed once, when first read: a run pays only for
    the stationary test's residual on row 0."""

    def test_integrate_calls_patched_attributes(self, monkeypatch, ex1):
        kernel = _counting(monkeypatch, kernels, "integrate_offdiag_kernel")
        reference = _counting(monkeypatch, flow, "spectrum_zero_diag")
        drift = _counting(monkeypatch, flow, "batch_eigenvalues_zero_diag")
        lyap = _counting(monkeypatch, flow, "lyapunov_f_offdiag")
        resid = _counting(monkeypatch, flow, "residual_norms")
        traj = flow.integrate(ex1, flow.IntegratorConfig(t_max=0.1))
        assert len(kernel) == len(reference) == 1
        assert (len(drift), len(lyap), len(resid)) == (0, 0, 1)
        for _ in range(2):  # the second read adds no call
            traj.spec_drift, traj.f_values, traj.k_norms
            assert (len(drift), len(lyap), len(resid)) == (1, 1, 2)
        assert len(kernel) == len(reference) == 1

    def test_integrate_dense_calls_patched_kernel(self, monkeypatch, ex1):
        kernel = _counting(monkeypatch, kernels, "integrate_dense_kernel")
        eigvalsh = _counting(monkeypatch, np.linalg, "eigvalsh")
        traj = flow.integrate_dense(jacobi.embed(ex1), flow.IntegratorConfig(t_max=0.1))
        assert len(kernel) == len(eigvalsh) == 1  # eigvalsh: the reference
        traj.f_values, traj.k_norms
        assert len(eigvalsh) == 1
        for _ in range(2):  # the second read adds no call
            traj.spec_drift
            assert len(eigvalsh) == 2
        assert len(kernel) == 1
