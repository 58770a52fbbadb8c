"""Time integration of the sorting flow.

The state vector is the off-diagonal of the zero-diagonal Jacobi matrix, so
the tridiagonal structure and zero diagonal are preserved exactly; the dense
symmetric integrator exists for cross-validation and for experiments on full
symmetric matrices, where only isospectrality and Lyapunov monotonicity are
guaranteed.

Both forms run through one driver, ``_run``: it resolves eq_eps, returns
equilibria as stationary trajectories, picks the initial step, calls the
kernel, turns a step underflow or a non-finite state into an error, and
measures spectral drift. ``integrate`` and ``integrate_dense`` only validate
their input and supply what depends on the state's shape (right-hand side,
kernel, eigensolver, per-row diagnostics). The kernels and the eigensolver
are looked up by name on every call, so a wrapper installed on the module
attribute sees each call.
"""

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
    rhs_componentwise,
    rhs_matrix,
    validate_initial_state,
)
from .spectral import batch_eigenvalues_zero_diag, default_gap_tol

__all__ = [
    "IntegratorConfig",
    "FlowTrajectory",
    "DenseTrajectory",
    "integrate",
    "integrate_dense",
    "detect_convergence",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator settings.

    dt is the fixed step for rk4 and the initial trial step for rk45
    (None picks one from the initial slope). eq_eps is the equilibrium
    residual that stops the run early (None -> 1e-10 * (1 + ||a0||^2)).
    """

    method: str = "rk45"
    dt: float | None = None
    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    t_max: float = 10.0
    eq_eps: float | None = None
    record_stride: int = 1
    max_rows: int = 10_000

    def validated(self) -> "IntegratorConfig":
        if self.method not in ("rk45", "rk4"):
            raise ValidationFailure(
                f"unknown method {self.method!r}; expected rk45 or rk4"
            )
        # written so that NaN fails every check
        if not 0 < self.t_max < np.inf:
            raise ValidationFailure("t_max must be positive and finite")
        if self.dt is not None and not self.dt > 0:
            raise ValidationFailure("dt must be positive")
        if not (0 < self.abs_tol < np.inf and 0 < self.rel_tol < np.inf):
            raise ValidationFailure("abs_tol and rel_tol must be positive and finite")
        if self.eq_eps is not None and not self.eq_eps >= 0:
            raise ValidationFailure("eq_eps must be nonnegative")
        if self.record_stride < 1:
            raise ValidationFailure("record_stride must be at least 1")
        if self.max_rows < 2:
            raise ValidationFailure("max_rows must be at least 2")
        return self


# an rk4 run of more steps than this is refused before it starts
_MAX_RK4_STEPS = 10**6

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
    ref_eigs: np.ndarray | None = None  # t=0 spectrum; None for stationary_input

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


def _default_eq_eps(sq_norm: float) -> float:
    # the residual scales quadratically in the entries
    return 1e-10 * (1.0 + sq_norm)


def _initial_step(cfg: IntegratorConfig, slope_inf: float, state_inf: float) -> float:
    if cfg.dt is not None:
        return cfg.dt
    if cfg.method == "rk4":
        return 1e-3
    h0 = 0.1 * (1.0 + state_inf) / (1.0 + slope_inf)
    return min(h0, 1e-3 * cfg.t_max)


def _eig_tol(scale: float) -> float:
    return 1e-12 * (1.0 + scale)


def _sum_sq(x: np.ndarray) -> float:
    """Sum of squared entries; an overflow gives inf, which _run reports."""
    with np.errstate(over="ignore"):
        return float(np.sum(x * x))


def _run(y0, cfg, sq_norm, rhs, kernel, reference, eigenvalues, diagnostics):
    """Integrate from y0 and return the trajectory fields.

    sq_norm is ||a||^2 of the off-diagonal the state encodes (half the squared
    Frobenius norm of a matrix) and sets the default eq_eps. The callables
    carry what depends on the state's shape: rhs(y), the kernel, reference()
    (the t=0 spectrum, after any check that needs it),
    eigenvalues(states, guess=t=0 spectrum) and diagnostics(states) ->
    (Lyapunov values, residual norms). An input whose residual is already
    <= eq_eps is returned as a one-row stationary_input trajectory without
    integrating.
    """
    eq_eps = cfg.eq_eps if cfg.eq_eps is not None else _default_eq_eps(sq_norm)
    with np.errstate(over="ignore", invalid="ignore"):
        f0, k0 = diagnostics(y0[None])
    if not (np.isfinite(sq_norm) and np.isfinite(k0[0])):
        raise ValidationFailure(
            f"initial state is out of range: squared norm {sq_norm:.3e}, "
            f"residual {k0[0]:.3e}"
        )
    fields = dict(config=cfg, eq_eps=eq_eps)
    # equilibria short-circuit before reference(): they do not move, and they
    # typically carry the zero entries validation rejects
    if k0[0] <= eq_eps:
        return dict(fields, times=np.zeros(1), states=y0[None].copy(),
                    f_values=f0, k_norms=k0, spec_drift=np.zeros(1),
                    status="stationary_input")

    ref_eigs = reference()
    h0 = _initial_step(cfg, float(np.abs(rhs(y0)).max(initial=0.0)),
                       float(np.abs(y0).max(initial=0.0)))
    if cfg.method == "rk4" and cfg.t_max / h0 > _MAX_RK4_STEPS:
        raise ValidationFailure(
            f"rk4 run of t_max/dt = {cfg.t_max / h0:.3e} steps exceeds "
            f"{_MAX_RK4_STEPS}; raise dt or lower t_max"
        )
    dt_min = 1e-14 * cfg.t_max
    with np.errstate(over="ignore", invalid="ignore"):
        times, states, count, status, _, _ = kernel(
            y0, cfg.t_max, h0, cfg.method == "rk4", cfg.abs_tol, cfg.rel_tol,
            eq_eps, dt_min, cfg.record_stride, cfg.max_rows)
    if status == kernels.STATUS_UNDERFLOW:
        raise StepUnderflow(
            f"adaptive step fell below {dt_min:.3e} (1e-14 * t_max); "
            "loosen tolerances"
        )
    times = times[:count].copy()
    states = states[:count].copy()
    if not np.all(np.isfinite(states)):
        raise NonConvergence(
            f"{cfg.method} run diverged to a non-finite state; reduce dt"
        )

    drift = np.abs(eigenvalues(states, guess=ref_eigs) - ref_eigs[None, :])
    drift = drift.max(axis=1)
    drift[0] = 0.0
    f_values, k_norms = diagnostics(states)
    return dict(fields, times=times, states=states, f_values=f_values,
                k_norms=k_norms, spec_drift=drift, status=_STATUS_NAMES[status],
                ref_eigs=ref_eigs)


def _offdiag_diagnostics(states):
    return lyapunov_f_offdiag(states), residual_norms(states)


def integrate(a0, cfg: IntegratorConfig | None = None, *,
              validate: bool = True) -> FlowTrajectory:
    """Integrate the flow from a0 until equilibrium or the horizon.

    With validate=True (the default) the initial condition must have nonzero
    entries and pairwise-distinct eigenvalues. An initial condition that is
    already an equilibrium (residual <= eq_eps) yields a single-row
    stationary_input trajectory without integrating.
    """
    cfg = (cfg or IntegratorConfig()).validated()
    a0 = as_offdiag(a0)
    sq_norm = _sum_sq(a0)
    scale = float(np.sqrt(2.0 * sq_norm))

    def eigenvalues(states, guess=None):
        return batch_eigenvalues_zero_diag(states, _eig_tol(scale), guess=guess)

    def reference():
        ref_eigs = eigenvalues(a0[None, :])[0]
        if validate:
            validate_initial_state(a0)
            gaps = np.diff(ref_eigs)
            if gaps.size and gaps.min() < default_gap_tol(scale):
                raise ValidationFailure(
                    f"eigenvalue gap {gaps.min():.3e} below "
                    f"{default_gap_tol(scale):.3e}: not a Jacobi matrix"
                )
        return ref_eigs

    return FlowTrajectory(**_run(
        a0, cfg, sq_norm, rhs_componentwise, kernels.integrate_offdiag_kernel,
        reference, eigenvalues, _offdiag_diagnostics))


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


def _dense_diagnostics(states):
    # one norm per row: a batched norm sums in another order and changes bits
    k_norms = np.array([np.linalg.norm(commutator(H, map_N(H))) for H in states])
    return _dense_f(states), k_norms


def integrate_dense(H0, cfg: IntegratorConfig | None = None) -> DenseTrajectory:
    """Integrate the dense double-bracket flow on a full symmetric matrix.

    Experimental: for general symmetric initial conditions only isospectrality
    and Lyapunov monotonicity are guaranteed; the block-diagonal limit is
    reported via final_blocks, not asserted.
    """
    cfg = (cfg or IntegratorConfig()).validated()
    H0 = np.asarray(H0, dtype=np.float64)
    if H0.ndim != 2 or H0.shape[0] != H0.shape[1]:
        raise ValidationFailure(f"expected a square matrix, got shape {H0.shape}")
    if not np.all(np.isfinite(H0)):
        raise ValidationFailure("matrix entries must be finite")
    sym_defect = float(np.abs(H0 - H0.T).max())
    if sym_defect > 1e-12 * (1.0 + float(np.abs(H0).max())):
        raise ValidationFailure(f"matrix is not symmetric (defect {sym_defect:.3e})")
    H0 = 0.5 * (H0 + H0.T)

    fields = _run(H0, cfg, 0.5 * _sum_sq(H0), rhs_matrix,
                  kernels.integrate_dense_kernel, lambda: np.linalg.eigvalsh(H0),
                  lambda states, guess: np.linalg.eigvalsh(states), _dense_diagnostics)
    threshold = 1e-6 * (1.0 + float(np.abs(H0).max()))
    return DenseTrajectory(**fields,
                           final_blocks=block_structure(fields["states"][-1], threshold))


def _dense_f(states: np.ndarray) -> np.ndarray:
    """Lyapunov values for a batch of dense symmetric states (m, n, n)."""
    m, n, _ = states.shape
    coeff = np.arange(n - 1, dtype=np.float64) - 1.0
    sd = np.diagonal(states, offset=1, axis1=1, axis2=2)
    nsq = 2.0 * np.sum((coeff * sd) ** 2, axis=1)
    hn_cross = 2.0 * np.sum(coeff * sd * sd, axis=1)  # tr(N(H) H)
    hsq = np.sum(states * states, axis=(1, 2))
    return -0.25 * (hsq - 2.0 * hn_cross + nsq) + 0.25 * nsq


def detect_convergence(traj, eq_eps: float, window: int = 1) -> bool:
    """True iff the last ``window`` samples all have k_norm <= eq_eps."""
    if window < 1:
        raise ValueError("window must be at least 1")
    k = np.asarray(traj.k_norms)
    if k.size < window:
        return False
    return bool(np.all(k[-window:] <= eq_eps))
