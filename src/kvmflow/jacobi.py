"""Zero-diagonal Jacobi matrices and the maps driving the sorting flow.

A zero-diagonal Jacobi matrix is encoded compactly by its super-diagonal
``a = (a_1, ..., a_{n-1})``; ``embed`` produces the dense symmetric matrix.
Entry indices in docstrings are 1-based to match the usual notation.
"""

import math

import numpy as np

from .errors import DimensionMismatch, StructureViolation, ValidationFailure

__all__ = [
    "as_offdiag",
    "embed",
    "extract_offdiag",
    "map_N",
    "map_K",
    "commutator",
    "rhs_componentwise",
    "log_chart_rhs",
    "rhs_matrix",
    "lyapunov_f",
    "lyapunov_f_traceform",
    "lyapunov_f_offdiag",
    "equilibrium_residual",
    "scaled_norm",
    "validate_initial_state",
]


def as_offdiag(a) -> np.ndarray:
    """Coerce to a finite float64 off-diagonal vector (length n-1, n >= 1)."""
    arr = np.asarray(a, dtype=np.float64).reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationFailure("off-diagonal entries must be finite")
    return arr


def embed(a) -> np.ndarray:
    """Dense n x n symmetric matrix with zero diagonal and super/sub-diagonal a."""
    a = as_offdiag(a)
    return np.diag(a, 1) + np.diag(a, -1)


def extract_offdiag(H, strict_tol: float | None = None) -> np.ndarray:
    """Read back the super-diagonal of a zero-diagonal tridiagonal matrix.

    Raises StructureViolation if any diagonal or out-of-band entry exceeds
    ``strict_tol`` (default ``1e-12 * max(1, ||H||_F)``): the flow left the
    Jacobi manifold, which signals an integrator bug, not a user error.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {H.shape}")
    n = H.shape[0]
    if strict_tol is None:
        strict_tol = 1e-12 * max(1.0, float(np.linalg.norm(H)))

    band = np.diag(np.diagonal(H, 1), 1) + np.diag(np.diagonal(H, -1), -1)
    off_band = np.abs(H - band).max() if n else 0.0
    if off_band > strict_tol:
        raise StructureViolation(
            f"entry of magnitude {off_band:.3e} outside the zero-diagonal "
            f"tridiagonal band (strict_tol={strict_tol:.3e})"
        )
    asym = np.abs(np.diagonal(H, 1) - np.diagonal(H, -1)).max() if n > 1 else 0.0
    if asym > strict_tol:
        raise StructureViolation(
            f"super/sub-diagonal asymmetry {asym:.3e} exceeds strict_tol={strict_tol:.3e}"
        )
    return np.diagonal(H, 1).copy()


def map_N(A) -> np.ndarray:
    """Linear map reading the super-diagonal: entry i is scaled by (i-2), 1-based.

    The result is symmetric tridiagonal with zero diagonal regardless of A.
    """
    A = np.asarray(A, dtype=np.float64)
    as_offdiag(np.diagonal(A, 1))  # the entries N reads must be finite
    return _map_N(A)


def _map_N(A: np.ndarray) -> np.ndarray:
    """Unchecked map_N for a float64 square matrix (the integrator's hot path)."""
    n = A.shape[0]
    N = np.zeros((n, n))  # C-ordered whatever A's layout, so reshape is a view
    if n >= 2:
        v = (np.arange(n - 1, dtype=np.float64) - 1.0) * np.diagonal(A, 1)
        flat = N.reshape(-1)
        flat[1::n + 1] = v
        flat[n::n + 1] = v
    return N


def map_K(a) -> np.ndarray:
    """Skew matrix with (i, i+2) entries a_i * a_{i+1}; zero for n <= 2."""
    a = as_offdiag(a)
    n = a.size + 1
    if n < 3:
        return np.zeros((n, n))
    prods = a[:-1] * a[1:]
    return np.diag(prods, 2) - np.diag(prods, -2)


def commutator(A, B) -> np.ndarray:
    """[A, B] = AB - BA."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape != B.shape or A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatch(f"incompatible shapes {A.shape} and {B.shape}")
    return A @ B - B @ A


def rhs_componentwise(a) -> np.ndarray:
    """Closed-form time derivative of the off-diagonal vector.

    da_1 = -a_1 a_2^2, da_i = a_i (a_{i-1}^2 - a_{i+1}^2) for 1 < i < n-1,
    da_{n-1} = a_{n-1} a_{n-2}^2. Identically zero for n <= 2.
    """
    a = as_offdiag(a)
    sq = np.zeros(a.size + 2)  # a_0 = a_n = 0 at the two ends
    sq[1:-1] = a * a
    return a * (sq[:-2] - sq[2:])


def log_chart_rhs(k: int):
    """Return rhs(v), the flow's field on the log-magnitude chart, for k entries.

    With c = ||a0||, v_i = log|a_i / c| and tau = c^2 t, the componentwise
    field becomes dv_i/dtau = e_{i-1} - e_{i+1} with e = exp(2 v) and
    e_0 = e_n = 0: no sign, no scale. The flow of a = c b is c b(c^2 t),
    since the field is homogeneous of degree 3. rhs writes e into one padded
    buffer allocated here, so the ends need no branch; each call allocates
    only its result. An entry at v = -inf (a zero entry) has e = 0.
    """
    e = np.zeros(k + 2)
    inner = e[1:-1]
    before, after = e[:-2], e[2:]

    def rhs(v: np.ndarray) -> np.ndarray:
        np.multiply(v, 2.0, out=inner)
        np.exp(inner, out=inner)
        return before - after

    return rhs


def rhs_matrix(H) -> np.ndarray:
    """Dense double-bracket right-hand side [H, [H, N(H)]]."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {H.shape}")
    as_offdiag(np.diagonal(H, 1))  # the entries N reads must be finite
    return _rhs_dense(H)


def _bracket_K(H: np.ndarray) -> np.ndarray:
    """Unchecked inner bracket [H, N(H)] for a float64 square matrix."""
    N = _map_N(H)
    return H @ N - N @ H


def _rhs_dense(H: np.ndarray) -> np.ndarray:
    """Unchecked rhs_matrix for a float64 square matrix."""
    K = _bracket_K(H)
    return H @ K - K @ H


def lyapunov_f(H) -> float:
    """Lyapunov value -1/4 ||H - N(H)||_F^2 + 1/4 ||N(H)||_F^2."""
    H = np.asarray(H, dtype=np.float64)
    NH = map_N(H)
    return -0.25 * float(np.sum((H - NH) ** 2)) + 0.25 * float(np.sum(NH**2))


def lyapunov_f_traceform(H) -> float:
    """Equivalent trace form -1/4 ||H||_F^2 + 1/2 tr(N(H) H)."""
    H = np.asarray(H, dtype=np.float64)
    NH = map_N(H)
    return -0.25 * float(np.sum(H * H)) + 0.5 * float(np.sum(NH * H))


def lyapunov_f_offdiag(states: np.ndarray) -> np.ndarray:
    """Lyapunov values for a batch of off-diagonal rows, shape (m, n-1)."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    k = states.shape[1]
    coeff = np.arange(k, dtype=np.float64) - 1.0
    return -0.5 * np.sum(((1.0 - coeff) * states) ** 2, axis=1) + 0.5 * np.sum(
        (coeff * states) ** 2, axis=1
    )


def equilibrium_residual(a) -> float:
    """Frobenius norm of map_K(a); exactly zero iff a is a flow equilibrium."""
    a = as_offdiag(a)
    if a.size < 2:
        return 0.0
    prods = a[:-1] * a[1:]
    return float(np.sqrt(2.0 * np.sum(prods * prods)))


def residual_norms(states: np.ndarray) -> np.ndarray:
    """equilibrium_residual for a batch of off-diagonal rows, shape (m, n-1)."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[1] < 2:
        return np.zeros(states.shape[0])
    prods = states[:, :-1] * states[:, 1:]
    return np.sqrt(2.0 * np.sum(prods * prods, axis=1))


def scaled_norm(x) -> float:
    """Euclidean norm of the entries of x, as m * ||x / m|| with m = max |x_i|.

    No entry is squared into under- or overflow; the result is inf only when
    the norm itself overflows.
    """
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    m = float(np.abs(x).max(initial=0.0))
    if m == 0.0 or not math.isfinite(m):
        return m
    y = x / m
    return m * math.sqrt(float(np.dot(y, y)))


def validate_initial_state(a) -> np.ndarray:
    """Flow-initial-condition validation: finite, nonzero entries.

    Eigenvalue distinctness is checked by the caller (it already owns the
    spectrum); this keeps the module free of eigensolver dependencies.
    """
    a = as_offdiag(a)
    if a.size and np.any(a == 0.0):
        idx = int(np.flatnonzero(a == 0.0)[0]) + 1
        raise ValidationFailure(
            f"off-diagonal entry a_{idx} is zero; flow initial conditions "
            "must have all entries nonzero (pass strict=False to bypass)"
        )
    return a
