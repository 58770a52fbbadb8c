"""Time integration of the sorting flow.

The state vector is the off-diagonal of the zero-diagonal Jacobi matrix, so
the tridiagonal structure and zero diagonal are preserved exactly; the dense
symmetric integrator exists for cross-validation and for experiments on full
symmetric matrices, where only isospectrality and Lyapunov monotonicity are
guaranteed.

The field is homogeneous of degree 3, so the flow from c * b is c * b(c^2 t)
for both state shapes. Both run through one driver, ``_run``, which owns the
units: it runs the state divided by its unit c (||a0||, or ||H0||_F / sqrt(2)
for a matrix) in tau = c^2 t, resolves eq_eps, returns equilibria as
stationary trajectories, calls the kernel, turns a step underflow, a spent
step budget (``kernels.MAX_STEPS``) or a non-finite state into
NonConvergence, and maps times and states back. The trajectory derives its
diagnostics from the unit rows when first read, with its class's per-row
functions.
``integrate`` hands ``kernels.integrate_offdiag_kernel`` v = log|a0 / c|
(the log-magnitude chart) in tau; the kernel steps log b^2 = 2 v in 2 tau,
the Volterra lattice, and returns v and tau, to the bit those of stepping v.
``integrate_dense`` steps the matrix H0 / c. Both kernels step with the one
adaptive DOP853 stepper, ``kernels._integrate``. The kernels, eigensolvers
and diagnostics are looked up by name on every call, so a wrapper installed
on the module attribute sees each call.
"""

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .errors import NonConvergence, ValidationFailure
from .jacobi import (
    _bracket_K,
    as_offdiag,
    as_symmetric,
    lyapunov_f_offdiag,
    residual_norms,
    scaled_norm,
    validate_initial_state,
)
from .spectral import (
    Spectrum,
    batch_eigenvalues_zero_diag,
    default_eig_tol,
    eigenvalues_tridiagonal,
    make_spectrum,
    spectrum_zero_diag,
)

__all__ = [
    "IntegratorConfig",
    "FlowTrajectory",
    "DenseTrajectory",
    "integrate",
    "integrate_dense",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Settings of the adaptive DOP853 integrator, checked when made.

    DOP853 is the Dormand-Prince 8(5,3) pair: an eighth-order step whose
    error is estimated from embedded fifth- and third-order solutions. The
    integrator picks its own steps, the first one from the initial state and
    its slope. eq_eps is the equilibrium residual that stops the run
    early (None -> 1e-10 * c^2, c the run's unit). tol bounds each step's
    error on the scale tol * (unit + max(|y|, |y_new|)), y and y_new the
    kernel state before and after the step, unit 1 for the dense flow's
    H / c. The off-diagonal kernel steps y = log(a_i / c)^2 with unit 2: to
    the bit, tol * (1 + max(|v|, |v_new|)) on v = log|a_i / c|, a relative
    accuracy on each entry.
    Past max_rows recorded rows, every other row is dropped.
    """

    tol: float = 1e-10
    t_max: float = 10.0
    eq_eps: float | None = None
    max_rows: int = 10_000

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.t_max < np.inf:
            raise ValidationFailure("t_max must be positive and finite")
        if not 0 < self.tol < np.inf:
            raise ValidationFailure("tol must be positive and finite")
        if self.eq_eps is not None and not 0 <= self.eq_eps < np.inf:
            raise ValidationFailure("eq_eps must be nonnegative and finite")
        # a float would reach np.empty; a bool is an int below 2
        if not (isinstance(self.max_rows, numbers.Integral) and self.max_rows >= 2):
            raise ValidationFailure("max_rows must be an integer of at least 2")


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled off-diagonal states. The per-sample diagnostics are computed
    once, on first read, from the unit rows by the per-shape _lyapunov,
    _residuals and _drift, and mapped back by c^2, c^2 and c: f_values
    (Lyapunov values), k_norms (residuals) and spec_drift (largest deviation
    from the t=0 spectrum; 0 on row 0 and on a stationary input)."""

    times: np.ndarray  # strictly increasing, starts at 0
    states: np.ndarray  # (m, n-1)
    unit_states: np.ndarray  # the kernel's rows; states is c times them, row 0 x0
    c: float  # the run's unit
    status: str  # converged | horizon_reached | stationary_input
    config: IntegratorConfig
    eq_eps: float  # resolved stopping threshold
    spectrum: Spectrum | None = None  # t=0 spectrum; None for stationary_input

    @property
    def n(self) -> int:
        return self.states.shape[1] + 1

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def f_values(self) -> np.ndarray:
        return self.c * self.c * self._lyapunov(self.unit_states)

    @cached_property
    def k_norms(self) -> np.ndarray:
        return self.c * self.c * self._residuals(self.unit_states)

    @cached_property
    def spec_drift(self) -> np.ndarray:
        if self.spectrum is None:
            return np.zeros(len(self.unit_states))
        drift = self._drift(self.unit_states, self.spectrum.values / self.c)
        drift[0] = 0.0
        return self.c * drift

    # a lambda looks its function up per call, so module wrappers see each call
    _lyapunov = staticmethod(lambda rows: lyapunov_f_offdiag(rows))
    _residuals = staticmethod(lambda rows: residual_norms(rows))

    @staticmethod
    def _drift(rows, ref):
        eigs = batch_eigenvalues_zero_diag(rows, _UNIT_EIG_TOL, guess=ref)
        return np.abs(eigs - ref).max(axis=1)


class DenseTrajectory(FlowTrajectory):
    """Sampled dense symmetric states (experimental mode); states is (m, n, n)."""

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def final_blocks(self) -> list:
        """Block sizes of the final state; couplings below 1e-6 max|H0| are 0."""
        return block_structure(self.states[-1], 1e-6 * float(np.abs(self.states[0]).max()))

    @staticmethod
    def _lyapunov(states):
        """Lyapunov values for a batch of dense symmetric states (m, n, n)."""
        coeff = np.arange(states.shape[1] - 1, dtype=np.float64) - 1.0
        sd = np.diagonal(states, offset=1, axis1=1, axis2=2)
        nsq = 2.0 * np.sum((coeff * sd) ** 2, axis=1)
        hn_cross = 2.0 * np.sum(coeff * sd * sd, axis=1)  # tr(N(H) H)
        hsq = np.sum(states * states, axis=(1, 2))
        return -0.25 * (hsq - 2.0 * hn_cross + nsq) + 0.25 * nsq

    # one norm per row: a batched norm sums in another order and changes bits
    _residuals = staticmethod(
        lambda rows: np.array([np.linalg.norm(_bracket_K(H)) for H in rows]))
    _drift = staticmethod(
        lambda rows, ref: np.abs(np.linalg.eigvalsh(rows) - ref).max(axis=1))


# the default eq_eps at unit norm; it is 1e-10 * c^2 in the input's units
_EQ_EPS = 1e-10
# smallest normal float: c^2 and the normalised horizon must reach it
_TINY = float(np.finfo(np.float64).tiny)
# the drift eigensolver's tolerance on unit rows, whose ||T||_F is sqrt(2)
_UNIT_EIG_TOL = default_eig_tol(math.sqrt(2.0))


def _run(cls, x0, cfg, c, y0, kernel, reference, rows):
    """Integrate x0 / c in tau = c^2 t; return the cls trajectory in x0's units.

    c is the input's unit and y0 the kernel state of x0 / c. The kernel,
    reference() (the t=0 Spectrum in x0's units, after any check that needs
    it) and rows(states) (the unit rows the kernel states encode) carry what
    depends on the state's shape. Only here are t_max and eq_eps mapped into
    tau and the unit residual, and times and states (row 0 is x0 itself)
    mapped back. An input whose c^2, n c^2 or c^2 t_max is not a finite
    normal float is rejected; one whose unit residual is already
    <= eq_eps / c^2 is a one-row stationary_input trajectory, not integrated.
    """
    c2 = c * c
    n = len(x0) + 1  # n for an off-diagonal, n + 1 for a matrix
    if not (_TINY <= c2 and n * c2 < math.inf):
        raise ValidationFailure(
            f"initial state is out of range: norm {c:.3e} squares outside "
            "the normal float range"
        )
    tau_max = c2 * cfg.t_max
    if not _TINY <= tau_max < math.inf:
        raise ValidationFailure(f"t_max * ||a0||^2 = {tau_max:.3e} is out of range")
    eq_unit = _EQ_EPS if cfg.eq_eps is None else cfg.eq_eps / c2
    # the threshold the run applies, in x0's units: a unit residual k <=
    # eq_unit stores as c2 * k <= c2 * eq_unit, since rounding is monotone
    fields = dict(c=c, config=cfg, eq_eps=c2 * eq_unit)

    row0 = rows(y0[None].copy())
    # equilibria short-circuit before reference(): they do not move, and they
    # typically carry the zero entries validation rejects
    if cls._residuals(row0)[0] <= eq_unit:
        return cls(times=np.zeros(1), states=x0[None].copy(), unit_states=row0,
                   status="stationary_input", **fields)

    spectrum = reference()
    # on a unit state the field is O(1), so tau = 1 is the run's time scale
    dt_min = 1e-14 * min(tau_max, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        times, states, _, status, _, _ = kernel(
            y0, tau_max, cfg.tol, eq_unit, dt_min, cfg.max_rows)
        if status == kernels.STATUS_UNDERFLOW:
            raise NonConvergence(
                "adaptive step fell below 1e-14 of the run's time scale; "
                "loosen tolerances"
            )
        if status == kernels.STATUS_BUDGET:
            raise NonConvergence(
                f"adaptive run took {kernels.MAX_STEPS} steps before t_max; "
                "lower t_max"
            )
        unit_states = rows(states)
    if not np.all(np.isfinite(unit_states)):
        raise NonConvergence("run diverged to a non-finite state; tighten tolerances")

    times = times / c2
    if status == kernels.STATUS_HORIZON:
        times[-1] = cfg.t_max
    states = c * unit_states
    states[0] = x0
    return cls(times=times, states=states, unit_states=unit_states,
               status=status, spectrum=spectrum, **fields)


def integrate(a0, cfg: IntegratorConfig | None = None, *,
              validate: bool = True) -> FlowTrajectory:
    """Integrate the flow from a0 until equilibrium or the horizon.

    With validate=True (the default) the initial condition must have nonzero
    entries and pairwise-distinct eigenvalues. An initial condition that is
    already an equilibrium (residual <= eq_eps) yields a single-row
    stationary_input trajectory without integrating.

    With c = ||a0|| and s = sign(a0), the kernel steps v = log|a0 / c| in
    tau = c^2 t and the unit rows are s exp(v); ``_run`` maps the units.
    """
    cfg = cfg or IntegratorConfig()
    a0 = as_offdiag(a0)
    n = a0.size + 1
    c = scaled_norm(a0) or 1.0  # any unit serves the zero vector, a fixed point
    sign = np.sign(a0)
    with np.errstate(divide="ignore"):
        v0 = np.log(np.abs(a0) / c)

    def reference():
        if not validate:
            return eigenvalues_tridiagonal(np.zeros(n), a0)
        validate_initial_state(a0)
        return spectrum_zero_diag(a0)

    return _run(FlowTrajectory, a0, cfg, c, v0, kernels.integrate_offdiag_kernel,
                reference, lambda V: sign * np.exp(V))


def block_structure(H: np.ndarray, threshold: float) -> list:
    """Contiguous diagonal block sizes of H after thresholding couplings."""
    H = np.asarray(H, dtype=np.float64)
    n = H.shape[0]
    sizes = []
    start = 0
    for i in range(n - 1):
        if np.abs(H[: i + 1, i + 1 :]).max() <= threshold:
            sizes.append(i + 1 - start)
            start = i + 1
    sizes.append(n - start)
    return sizes


def integrate_dense(H0, cfg: IntegratorConfig | None = None) -> DenseTrajectory:
    """Integrate the dense double-bracket flow on a full symmetric matrix.

    Experimental: for general symmetric initial conditions only isospectrality
    and Lyapunov monotonicity are guaranteed; the block-diagonal limit is
    reported via final_blocks, not asserted.
    """
    cfg = cfg or IntegratorConfig()
    H0 = as_symmetric(H0)
    # ||H0||_F / sqrt(2) is ||a0|| when H0 embeds a0; any unit serves H0 = 0
    c = scaled_norm(H0) / math.sqrt(2.0) or 1.0
    return _run(DenseTrajectory, H0, cfg, c, H0 / c, kernels.integrate_dense_kernel,
                lambda: make_spectrum(np.linalg.eigvalsh(H0)), lambda states: states)
