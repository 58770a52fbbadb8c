"""Time integration of the sorting flow.

The state vector is the off-diagonal of the zero-diagonal Jacobi matrix, so
the tridiagonal structure and zero diagonal are preserved exactly; the dense
symmetric integrator exists for cross-validation and for experiments on full
symmetric matrices, where only isospectrality and Lyapunov monotonicity are
guaranteed.

``integrate`` normalises once: with c = ||a0|| it steps v = log|a0 / c| in
the time tau = c^2 t (the log-magnitude chart, see
``kernels.integrate_offdiag_kernel``) and maps times, states and diagnostics
back at the end. ``integrate_dense`` stays in matrix coordinates.

Both forms run through one driver, ``_run``: it resolves eq_eps, returns
equilibria as stationary trajectories, picks the initial step, calls the
kernel, turns a step underflow or a non-finite state into an error, and
measures spectral drift. The callers supply what depends on the state's
shape (right-hand side, kernel, eigensolver, per-row diagnostics). The
kernels and the eigensolver are looked up by name on every call, so a
wrapper installed on the module attribute sees each call.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .errors import NonConvergence, StepUnderflow, ValidationFailure
from .jacobi import (
    as_offdiag,
    commutator,
    log_chart_rhs,
    lyapunov_f_offdiag,
    map_N,
    residual_norms,
    rhs_matrix,
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
    "detect_convergence",
]


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator settings.

    dt is the fixed step for rk4 (None -> 1e-3) and the initial trial step
    for rk45 (None picks one from the initial slope). eq_eps is the
    equilibrium residual that stops the run early (None -> 1e-10 * ||a0||^2).
    For the off-diagonal flow abs_tol and rel_tol bound the error in
    log|a_i|, which makes them relative accuracies on each entry.
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


def _default_eq_eps(sq_norm: float) -> float:
    # the residual scales quadratically in the entries
    return 1e-10 * sq_norm


# the rk4 step when dt is None, in units of t
_RK4_DT = 1e-3


def _initial_step(cfg: IntegratorConfig, slope_inf: float, state_inf: float) -> float:
    if cfg.dt is not None:
        return cfg.dt
    if cfg.method == "rk4":
        return _RK4_DT
    h0 = 0.1 * (1.0 + state_inf) / (1.0 + slope_inf)
    return min(h0, 1e-3 * cfg.t_max)


def _sum_sq(x: np.ndarray) -> float:
    """Sum of squared entries; an overflow gives inf, which _run reports."""
    with np.errstate(over="ignore"):
        return float(np.sum(x * x))


def _run(y0, cfg, sq_norm, unit, rhs, kernel, reference, rows, measure):
    """Integrate from y0 and return the trajectory fields in the kernel's units.

    y0, cfg and sq_norm (||a||^2 of the off-diagonal the state encodes, half
    the squared Frobenius norm of a matrix, which sets the default eq_eps)
    are in the coordinates the kernel steps, whose length unit is unit
    (||a0|| on the log chart, 1 for a matrix). The callables carry what
    depends on the state's shape: rhs(y), the kernel, reference() (the t=0
    Spectrum, after any check that needs it), rows(states) (the matrix rows
    the states encode, in that unit) and measure(rows, ref) -> (Lyapunov
    values, residual norms, spectral drift against ref, zeros when ref is
    None). An input whose residual is already <= eq_eps is returned as a
    one-row stationary_input trajectory without integrating.
    """
    eq_eps = cfg.eq_eps if cfg.eq_eps is not None else _default_eq_eps(sq_norm)
    row0 = rows(y0[None].copy())
    with np.errstate(over="ignore", invalid="ignore"):
        f0, k0, drift0 = measure(row0, None)
    if not (np.isfinite(sq_norm) and np.isfinite(k0[0])):
        raise ValidationFailure(
            f"initial state is out of range: squared norm {sq_norm:.3e}, "
            f"residual {k0[0]:.3e}"
        )
    fields = dict(config=cfg, eq_eps=eq_eps)
    # equilibria short-circuit before reference(): they do not move, and they
    # typically carry the zero entries validation rejects
    if k0[0] <= eq_eps:
        return dict(fields, times=np.zeros(1), states=row0, f_values=f0,
                    k_norms=k0, spec_drift=drift0, status="stationary_input")

    spectrum = reference()
    finite = np.abs(y0[np.isfinite(y0)])  # a zero entry is -inf on the log chart
    h0 = _initial_step(cfg, float(np.abs(rhs(y0)).max(initial=0.0)),
                       float(finite.max(initial=0.0)))
    if cfg.method == "rk4" and cfg.t_max / h0 > _MAX_RK4_STEPS:
        raise ValidationFailure(
            f"rk4 run of t_max/dt = {cfg.t_max / h0:.3e} steps exceeds "
            f"{_MAX_RK4_STEPS}; raise dt or lower t_max"
        )
    dt_min = 1e-14 * cfg.t_max
    if cfg.method == "rk45":
        # the kernel refuses a trial step below the floor before it can grow it
        h0 = max(h0, dt_min)
    with np.errstate(over="ignore", invalid="ignore"):
        times, states, count, status, _, _ = kernel(
            y0, cfg.t_max, h0, cfg.method == "rk4", cfg.abs_tol, cfg.rel_tol,
            eq_eps, dt_min, cfg.record_stride, cfg.max_rows)
        if status == kernels.STATUS_UNDERFLOW:
            raise StepUnderflow(
                "adaptive step fell below 1e-14 * t_max; loosen tolerances"
            )
        states = rows(states[:count].copy())
    if not np.all(np.isfinite(states)):
        raise NonConvergence(
            f"{cfg.method} run diverged to a non-finite state; reduce dt"
        )

    f_values, k_norms, drift = measure(states, spectrum.values / unit)
    drift[0] = 0.0
    return dict(fields, times=times[:count].copy(), states=states,
                f_values=f_values, k_norms=k_norms, spec_drift=drift,
                status=_STATUS_NAMES[status], spectrum=spectrum)


# smallest normal float: ||a0||^2 and the normalised horizon must reach it
_TINY = float(np.finfo(np.float64).tiny)


def integrate(a0, cfg: IntegratorConfig | None = None, *,
              validate: bool = True) -> FlowTrajectory:
    """Integrate the flow from a0 until equilibrium or the horizon.

    With validate=True (the default) the initial condition must have nonzero
    entries and pairwise-distinct eigenvalues. An initial condition that is
    already an equilibrium (residual <= eq_eps) yields a single-row
    stationary_input trajectory without integrating.

    The run is made once, at unit norm: with c = ||a0|| and s = sign(a0), the
    kernel steps v = log|a0 / c| in tau = c^2 t, and the trajectory is
    mapped back as t = tau / c^2, a = s c exp(v) (row 0 is a0 itself),
    Lyapunov values and residuals times c^2, drift times c. An input whose
    c^2 (or n c^2) is not a finite normal float is rejected.
    """
    cfg = (cfg or IntegratorConfig()).validated()
    a0 = as_offdiag(a0)
    n = a0.size + 1
    c = scaled_norm(a0) or 1.0  # any unit serves the zero vector, a fixed point
    c2 = c * c
    if not (_TINY <= c2 and n * c2 < math.inf):
        raise ValidationFailure(
            f"initial state is out of range: norm {c:.3e} squares outside "
            "the normal float range"
        )
    dt = cfg.dt
    if dt is None and cfg.method == "rk4":
        dt = _RK4_DT  # a step in t: it maps like a given one
    chart = replace(cfg, t_max=c2 * cfg.t_max, dt=None if dt is None else c2 * dt,
                    eq_eps=None if cfg.eq_eps is None else cfg.eq_eps / c2)
    if not _TINY <= chart.t_max < math.inf:
        raise ValidationFailure(
            f"t_max * ||a0||^2 = {chart.t_max:.3e} is out of range"
        )
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

    fields = _run(v0, chart, 1.0, c, log_chart_rhs(a0.size),
                  kernels.integrate_offdiag_kernel, reference, rows, measure)
    times = fields["times"] / c2
    if fields["status"] == "horizon_reached":
        times[-1] = cfg.t_max
    states = c * fields["states"]
    states[0] = a0
    eq_eps = cfg.eq_eps if cfg.eq_eps is not None else _default_eq_eps(c2)
    return FlowTrajectory(**dict(
        fields, config=cfg, eq_eps=eq_eps, times=times, states=states,
        f_values=c2 * fields["f_values"], k_norms=c2 * fields["k_norms"],
        spec_drift=c * fields["spec_drift"]))


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

    fields = _run(H0, cfg, 0.5 * _sum_sq(H0), 1.0, rhs_matrix,
                  kernels.integrate_dense_kernel,
                  lambda: make_spectrum(np.linalg.eigvalsh(H0)),
                  lambda states: states, _dense_measure)
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
