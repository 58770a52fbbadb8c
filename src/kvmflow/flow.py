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
step budget (``kernels.MAX_STEPS``) or a non-finite state into an error,
measures spectral drift and maps times, states and diagnostics back.
``integrate`` steps v = log|a0 / c| (the log-magnitude chart, see
``kernels.integrate_offdiag_kernel``); ``integrate_dense`` steps the matrix
H0 / c. Both kernels step with the one adaptive DOP853 stepper,
``kernels._integrate``. The callers supply what depends on the state's shape
(kernel, eigensolver, per-row diagnostics). The kernels and the eigensolver
are looked up by name on every call, so a wrapper installed on the module
attribute sees each call.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NonConvergence, StepUnderflow, ValidationFailure
from .jacobi import (
    as_offdiag,
    commutator,
    lyapunov_f_offdiag,
    map_N,
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
    early (None -> 1e-10 * c^2, c the run's unit). For the off-diagonal flow
    abs_tol and rel_tol bound the error in log|a_i|, which makes them
    relative accuracies on each entry; for the dense flow they bound the
    error in H / c.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    t_max: float = 10.0
    eq_eps: float | None = None
    record_stride: int = 1
    max_rows: int = 10_000

    def __post_init__(self):
        # written so that NaN fails every check
        if not 0 < self.t_max < np.inf:
            raise ValidationFailure("t_max must be positive and finite")
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ValidationFailure("abs_tol and rel_tol must be positive and finite")
        if self.eq_eps is not None and not 0 <= self.eq_eps < np.inf:
            raise ValidationFailure("eq_eps must be nonnegative and finite")
        if self.record_stride < 1:
            raise ValidationFailure("record_stride must be at least 1")
        if self.max_rows < 2:
            raise ValidationFailure("max_rows must be at least 2")

_STATUS_NAMES = {
    kernels.STATUS_CONVERGED: "converged",
    kernels.STATUS_HORIZON: "horizon_reached",
}


@dataclass(frozen=True)
class FlowTrajectory:
    """Sampled off-diagonal states with per-sample diagnostics."""

    times: np.ndarray  # strictly increasing, starts at 0
    states: np.ndarray  # (m, n-1)
    f_values: np.ndarray  # Lyapunov value per sample
    k_norms: np.ndarray  # equilibrium residual per sample
    spec_drift: np.ndarray  # max eigenvalue deviation from the t=0 spectrum
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


@dataclass(frozen=True)
class DenseTrajectory(FlowTrajectory):
    """Sampled dense symmetric states (experimental mode); states is (m, n, n)."""

    final_blocks: list = field(default_factory=list)  # contiguous block sizes

    @property
    def n(self) -> int:
        return self.states.shape[1]


# the default eq_eps at unit norm; it is 1e-10 * c^2 in the input's units
_EQ_EPS = 1e-10
# smallest normal float: c^2 and the normalised horizon must reach it
_TINY = float(np.finfo(np.float64).tiny)


def _run(x0, cfg, c, y0, kernel, reference, rows, measure):
    """Integrate x0 / c in tau = c^2 t; return the trajectory fields in x0's units.

    c is the input's unit and y0 the kernel state of x0 / c. Only here are
    t_max and eq_eps mapped into tau and the residual of x0 / c, and
    times, states (row 0 is x0 itself), Lyapunov values and residuals
    (times c^2) and drift (times c) mapped back. An input whose c^2, n c^2
    or c^2 t_max is not a finite normal float is rejected.

    The callables carry what depends on the state's shape: the kernel,
    reference() (the t=0 Spectrum in the input's units, after any check
    that needs it), rows(states) (the unit rows the kernel states encode)
    and measure(rows, ref) -> (Lyapunov values, residual norms, spectral
    drift against ref, zeros when ref is None). An input whose unit
    residual is already <= eq_eps / c^2 is returned as a one-row
    stationary_input trajectory without integrating.
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
    if cfg.eq_eps is None:
        eq_eps, eq_unit = _EQ_EPS * c2, _EQ_EPS
    else:
        eq_eps, eq_unit = cfg.eq_eps, cfg.eq_eps / c2
    fields = dict(config=cfg, eq_eps=eq_eps)

    row0 = rows(y0[None].copy())
    f0, k0, drift0 = measure(row0, None)
    # equilibria short-circuit before reference(): they do not move, and they
    # typically carry the zero entries validation rejects
    if k0[0] <= eq_unit:
        return dict(fields, times=np.zeros(1), states=x0[None].copy(),
                    f_values=c2 * f0, k_norms=c2 * k0, spec_drift=drift0,
                    status="stationary_input")

    spectrum = reference()
    # on a unit state the field is O(1), so tau = 1 is the run's time scale
    dt_min = 1e-14 * min(tau_max, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        times, states, count, status, _, _ = kernel(
            y0, tau_max, cfg.abs_tol, cfg.rel_tol, eq_unit, dt_min,
            cfg.record_stride, cfg.max_rows)
        if status == kernels.STATUS_UNDERFLOW:
            raise StepUnderflow(
                "adaptive step fell below 1e-14 of the run's time scale; "
                "loosen tolerances"
            )
        if status == kernels.STATUS_BUDGET:
            raise NonConvergence(
                f"adaptive run took {kernels.MAX_STEPS} steps before t_max; "
                "lower t_max"
            )
        states = rows(states[:count].copy())
    if not np.all(np.isfinite(states)):
        raise NonConvergence("run diverged to a non-finite state; tighten tolerances")

    f_values, k_norms, drift = measure(states, spectrum.values / c)
    drift[0] = 0.0
    times = times[:count] / c2
    if status == kernels.STATUS_HORIZON:
        times[-1] = cfg.t_max
    states *= c
    states[0] = x0
    return dict(fields, times=times, states=states, f_values=c2 * f_values,
                k_norms=c2 * k_norms, spec_drift=c * drift,
                status=_STATUS_NAMES[status], spectrum=spectrum)


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
    tol = default_eig_tol(math.sqrt(2.0))  # unit rows: ||T||_F = sqrt(2)

    def rows(V):
        return sign * np.exp(V)

    def measure(B, ref):
        f, k = lyapunov_f_offdiag(B), residual_norms(B)
        if ref is None:
            return f, k, np.zeros(len(B))
        drift = np.abs(batch_eigenvalues_zero_diag(B, tol, guess=ref) - ref)
        return f, k, drift.max(axis=1)

    def reference():
        if not validate:
            return eigenvalues_tridiagonal(np.zeros(n), a0)
        validate_initial_state(a0)
        return spectrum_zero_diag(a0)

    return FlowTrajectory(**_run(a0, cfg, c, v0, kernels.integrate_offdiag_kernel,
                                 reference, rows, measure))


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


def _dense_measure(states, ref):
    # one norm per row: a batched norm sums in another order and changes bits
    k_norms = np.array([np.linalg.norm(commutator(H, map_N(H))) for H in states])
    if ref is None:
        drift = np.zeros(len(states))
    else:
        drift = np.abs(np.linalg.eigvalsh(states) - ref).max(axis=1)
    return _dense_f(states), k_norms, drift


def integrate_dense(H0, cfg: IntegratorConfig | None = None) -> DenseTrajectory:
    """Integrate the dense double-bracket flow on a full symmetric matrix.

    Experimental: for general symmetric initial conditions only isospectrality
    and Lyapunov monotonicity are guaranteed; the block-diagonal limit is
    reported via final_blocks, not asserted.
    """
    cfg = cfg or IntegratorConfig()
    H0 = np.asarray(H0, dtype=np.float64)
    if H0.ndim != 2 or H0.shape[0] != H0.shape[1]:
        raise ValidationFailure(f"expected a square matrix, got shape {H0.shape}")
    if not np.all(np.isfinite(H0)):
        raise ValidationFailure("matrix entries must be finite")
    sym_defect = float(np.abs(H0 - H0.T).max())
    scale = float(np.abs(H0).max(initial=0.0))
    if sym_defect > 1e-12 * scale:
        raise ValidationFailure(f"matrix is not symmetric (defect {sym_defect:.3e})")
    H0 = 0.5 * (H0 + H0.T)
    # ||H0||_F / sqrt(2) is ||a0|| when H0 embeds a0; any unit serves H0 = 0
    c = scaled_norm(H0) / math.sqrt(2.0) or 1.0

    fields = _run(H0, cfg, c, H0 / c, kernels.integrate_dense_kernel,
                  lambda: make_spectrum(np.linalg.eigvalsh(H0)),
                  lambda states: states, _dense_measure)
    return DenseTrajectory(**fields, final_blocks=block_structure(
        fields["states"][-1], 1e-6 * scale))


def _dense_f(states: np.ndarray) -> np.ndarray:
    """Lyapunov values for a batch of dense symmetric states (m, n, n)."""
    m, n, _ = states.shape
    coeff = np.arange(n - 1, dtype=np.float64) - 1.0
    sd = np.diagonal(states, offset=1, axis1=1, axis2=2)
    nsq = 2.0 * np.sum((coeff * sd) ** 2, axis=1)
    hn_cross = 2.0 * np.sum(coeff * sd * sd, axis=1)  # tr(N(H) H)
    hsq = np.sum(states * states, axis=(1, 2))
    return -0.25 * (hsq - 2.0 * hn_cross + nsq) + 0.25 * nsq

