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
stationary trajectories, calls the kernel, turns a non-finite state into
NonConvergence, and maps times back; the kernel itself raises NonConvergence
for a step below its floor or a spent step budget (``kernels.MAX_STEPS``).
The trajectory stores the kernel's rows and x0; its class's chart and
per-row functions derive states, unit rows and diagnostics when first read.
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
    _sum_in_order,
    as_offdiag,
    as_symmetric,
    log_chart_stable,
    lyapunov_f_offdiag,
    lyapunov_f_traceform,
    residual_norms,
    scaled_norm,
    validate_initial_state,
)
from .spectral import (
    EIG_TOL,
    Spectrum,
    batch_eigenvalues_zero_diag,
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
        # a non-integral cap never equals the kernel's row count, so its rows
        # would never be thinned; a bool is an int below 2
        if not (isinstance(self.max_rows, numbers.Integral) and self.max_rows >= 2):
            raise ValidationFailure("max_rows must be an integer of at least 2")


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled off-diagonal states. Stored: the kernel's rows and x0. Derived
    once, on first read: unit_states = sign(x0) exp(rows), states = c times
    them with row 0 x0, and by the per-shape _lyapunov, _drift and _residuals
    (the stop test's), times c^2, c and c (c .): f_values, spec_drift (the
    largest deviation from the t=0 spectrum; 0 on row 0, which is not solved,
    and on a stationary input) and k_norms, whose row 0 is equilibrium_residual(x0).
    One stop rule decides the status: a row stops the run when its k_norms
    value is <= eq_eps and _stable(row) holds (log_chart_stable: the paper's
    limit pattern, per block between zero entries). stationary_input means
    row 0 meets it, converged that the last row does. _sq_norms gives each
    unit row's ||T / c||_F^2 / 2, the measure of frobenius_conservation."""

    times: np.ndarray  # strictly increasing, starts at 0
    rows: np.ndarray  # the kernel's, (m, n-1): v = log|a / c|, -inf at a 0
    x0: np.ndarray  # the input
    c: float  # the run's unit
    status: str  # converged | horizon_reached | stationary_input
    config: IntegratorConfig
    eq_eps: float  # resolved stopping threshold
    spectrum: Spectrum | None = None  # t=0 spectrum; None for stationary_input

    @property
    def n(self) -> int:
        return self.rows.shape[1] + 1

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @cached_property
    def unit_states(self) -> np.ndarray:
        return np.sign(self.x0) * np.exp(self.rows)

    @cached_property
    def states(self) -> np.ndarray:
        states = self.c * self.unit_states
        states[0] = self.x0
        return states

    @cached_property
    def f_values(self) -> np.ndarray:
        return self.c * self.c * self._lyapunov(self.unit_states)

    @cached_property
    def k_norms(self) -> np.ndarray:
        return self.c * (self.c * self._residuals(self.rows))

    @cached_property
    def spec_drift(self) -> np.ndarray:
        drift = np.zeros(len(self.rows))
        if self.spectrum is not None and len(drift) > 1:
            drift[1:] = self.c * self._drift(self.unit_states[1:],
                                             self.spectrum.values / self.c)
        return drift

    # a lambda looks its function up per call, so module wrappers see each call
    _lyapunov = staticmethod(lambda rows: lyapunov_f_offdiag(rows))
    _residuals = staticmethod(lambda rows: residual_norms(rows))
    _stable = staticmethod(lambda row: log_chart_stable(row))
    _sq_norms = staticmethod(lambda rows: np.sum(rows * rows, axis=1))

    @staticmethod
    def _drift(rows, ref):
        eigs = batch_eigenvalues_zero_diag(rows, _UNIT_EIG_TOL, guess=ref)
        return np.abs(eigs - ref).max(axis=1)


class DenseTrajectory(FlowTrajectory):
    """Sampled dense states (experimental mode); rows is H / c, (m, n, n), and
    _sq_norms ||H / c||_F^2 / 2."""

    @property
    def n(self) -> int:
        return self.rows.shape[1]

    unit_states = property(lambda self: self.rows)  # H / c is its own chart

    @property
    def final_blocks(self) -> list:
        """Block sizes of the final state; couplings below 1e-6 max|H0| are 0."""
        return block_structure(self.states[-1], 1e-6 * float(np.abs(self.x0).max()))

    _lyapunov = staticmethod(lambda rows: lyapunov_f_traceform(rows))
    _residuals = staticmethod(lambda rows: np.array(
        [math.sqrt(_sum_in_order(K * K)) for K in map(_bracket_K, rows)]))
    # no theorem gives a general symmetric matrix a limit pattern: like its
    # stepper, the dense run stops on the residual alone
    _stable = staticmethod(lambda row: True)
    _sq_norms = staticmethod(lambda rows: np.sum(rows * rows, axis=(1, 2)) / 2)
    _drift = staticmethod(
        lambda rows, ref: np.abs(np.linalg.eigvalsh(rows) - ref).max(axis=1))


# the default eq_eps at unit norm; it is 1e-10 * c^2 in the input's units
_EQ_EPS = 1e-10
# smallest normal float: c^2 and the normalised horizon must reach it
_TINY = float(np.finfo(np.float64).tiny)
# the drift eigensolver's tolerance on unit rows, whose ||T||_F is sqrt(2)
_UNIT_EIG_TOL = EIG_TOL * math.sqrt(2.0)


def _run(cls, x0, cfg, c, y0, kernel, reference):
    """Integrate x0 / c in tau = c^2 t; return the cls trajectory in x0's units.

    c is the input's unit and y0 the kernel state of x0 / c. The kernel,
    reference() (the t=0 Spectrum in x0's units, after any check that needs
    it) and cls (whose chart reads states off the kernel's rows) carry what
    depends on the state's shape. Only here is t_max mapped into tau and
    times mapped back. One stop rule, the kernel's, decides every status:
    c (c r) <= eq_eps, r the unit residual (k_norms' number), and
    cls._stable, the kernel's pattern test. An input whose c^2, n c^2 or
    c^2 t_max is not a finite normal float is rejected; one that already
    meets the stop rule (every n = 1 input) is a one-row stationary_input
    trajectory, not integrated. A run that diverges to a non-finite state
    raises NonConvergence here; the kernel raises its own step failures.
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
    eq_eps = c2 * _EQ_EPS if cfg.eq_eps is None else cfg.eq_eps
    fields = dict(x0=x0.copy(), c=c, config=cfg, eq_eps=eq_eps)

    # a state that meets the stop rule short-circuits before reference(): it
    # does not move, and it typically carries the zero entries validation
    # rejects
    if c * (c * cls._residuals(y0[None])[0]) <= eq_eps and cls._stable(y0):
        return cls(times=np.zeros(1), rows=y0[None], status="stationary_input",
                   **fields)

    spectrum = reference()
    with np.errstate(over="ignore", invalid="ignore"):
        times, rows, _, status, _, _ = kernel(
            y0, tau_max, cfg.tol, eq_eps, cfg.max_rows, c)
        traj = cls(times=times / c2, rows=rows, status=status, spectrum=spectrum,
                   **fields)
        if not np.all(np.isfinite(traj.unit_states)):
            raise NonConvergence("run diverged to a non-finite state; tighten tolerances")
    if status == kernels.STATUS_HORIZON:
        traj.times[-1] = cfg.t_max
    return traj


def integrate(a0, cfg: IntegratorConfig | None = None, *,
              validate: bool = True) -> FlowTrajectory:
    """Integrate the flow from a0 until equilibrium or the horizon.

    With validate=True (the default) the initial condition must have nonzero
    entries and pairwise-distinct eigenvalues. The run stops at the first
    state whose residual is <= eq_eps and that has the paper's limit pattern
    (jacobi.log_chart_stable, per block between zero entries); an a0 that
    meets this rule, equilibrium_residual(a0) <= eq_eps on the stable
    pattern, yields a single-row stationary_input trajectory without
    integrating. An unstable equilibrium (a saddle), or a state near one,
    is integrated like any other.

    With c = ||a0||, the kernel steps v = log|a0 / c| in tau = c^2 t, and the
    trajectory keeps v as its rows; ``_run`` maps the units.
    """
    cfg = cfg or IntegratorConfig()
    a0 = as_offdiag(a0)
    n = a0.size + 1
    c = scaled_norm(a0) or 1.0  # any unit serves the zero vector, a fixed point
    with np.errstate(divide="ignore"):
        v0 = np.log(np.abs(a0) / c)

    def reference():
        if not validate:
            return eigenvalues_tridiagonal(np.zeros(n), a0)
        validate_initial_state(a0)
        return spectrum_zero_diag(a0)

    return _run(FlowTrajectory, a0, cfg, c, v0, kernels.integrate_offdiag_kernel,
                reference)


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
                lambda: make_spectrum(np.linalg.eigvalsh(H0)))
