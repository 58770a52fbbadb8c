"""Zero-diagonal Jacobi matrices and the maps driving the sorting flow.

A zero-diagonal Jacobi matrix is encoded compactly by its super-diagonal
``a = (a_1, ..., a_{n-1})``; ``embed`` produces the dense symmetric matrix.
Entry indices in docstrings are 1-based to match the usual notation.
"""

import math

import numpy as np

from .errors import ValidationFailure

__all__ = [
    "as_offdiag",
    "as_diagonal",
    "as_symmetric",
    "embed",
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


def _as_finite(x, entry: str) -> np.ndarray:
    """Coerce to a finite float64 vector; name the first bad entry entry_i."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if arr.size and not np.all(np.isfinite(arr)):
        idx = int(np.flatnonzero(~np.isfinite(arr))[0]) + 1
        raise ValidationFailure(f"{entry}_{idx} is not finite")
    return arr


def as_offdiag(a) -> np.ndarray:
    """Coerce to a finite float64 off-diagonal vector (length n-1, n >= 1).

    The one finiteness check of an off-diagonal input; its ValidationFailure
    names the first entry that is not finite.
    """
    return _as_finite(a, "off-diagonal entry a")


def as_diagonal(d) -> np.ndarray:
    """Coerce to a finite float64 diagonal vector: as_offdiag for entries d_i."""
    return _as_finite(d, "diagonal entry d")


def as_symmetric(H) -> np.ndarray:
    """Coerce to a finite float64 symmetric matrix: 0.5 (H + H^T).

    The one check of a dense input: H must be square and nonempty, have
    finite entries and an asymmetry max|H - H^T| of at most 1e-12 * max|H|.
    """
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1] or H.size == 0:
        raise ValidationFailure(f"expected a nonempty square matrix, got shape {H.shape}")
    if not np.all(np.isfinite(H)):
        i, j = np.argwhere(~np.isfinite(H))[0] + 1
        raise ValidationFailure(f"matrix entry ({i}, {j}) is not finite")
    defect = float(np.abs(H - H.T).max())
    if defect > 1e-12 * float(np.abs(H).max()):
        raise ValidationFailure(f"matrix is not symmetric (defect {defect:.3e})")
    return 0.5 * (H + H.T)


def embed(a) -> np.ndarray:
    """Dense n x n symmetric matrix with zero diagonal and super/sub-diagonal a."""
    a = as_offdiag(a)
    return np.diag(a, 1) + np.diag(a, -1)


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
        raise ValidationFailure(f"incompatible shapes {A.shape} and {B.shape}")
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


def _sum_in_order(x: np.ndarray) -> float:
    """Sum of all entries, added left to right in C order."""
    return np.add.accumulate(x.reshape(-1))[-1] if x.size else 0.0


def log_chart_rhs(k: int):
    """Return (rhs, resid2), the flow's field on the log chart, for k entries.

    With c = ||a0||, w_i = log(a_i^2 / c^2) = 2 log|a_i / c| and s = 2 c^2 t,
    the componentwise field becomes dw_i/ds = u_{i-1} - u_{i+1} with
    u = exp(w) = (a / c)^2 and u_0 = u_n = 0: the Volterra lattice, with no
    sign and no scale. The flow of a = c b is c b(c^2 t), since the field is
    homogeneous of degree 3. rhs writes u into one padded buffer allocated
    here, so the ends need no branch: one exp and one subtraction.
    rhs(w, out) writes the field to out; without out it returns a new array.
    An entry at w = -inf (a zero entry) has u = 0.

    resid2() is the squared equilibrium residual ||K||_F^2 = 2 sum u_i u_{i+1}
    of the state of the last rhs call, read off its u and summed left to
    right.
    """
    u = np.zeros(k + 2)
    inner = u[1:-1]
    before, after = u[:-2], u[2:]
    prods = np.empty(max(k - 1, 0))

    def rhs(w: np.ndarray, out=None) -> np.ndarray:
        np.exp(w, out=inner)
        return np.subtract(before, after, out=out)

    def resid2() -> float:
        return 2.0 * _sum_in_order(np.multiply(inner[:-1], inner[1:], out=prods))

    return rhs, resid2


def rhs_matrix(H) -> np.ndarray:
    """Dense double-bracket right-hand side [H, [H, N(H)]]."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationFailure(f"expected a square matrix, got shape {H.shape}")
    as_offdiag(np.diagonal(H, 1))  # the entries N reads must be finite
    return _dense_field()[0](H)


def _bracket_K(H: np.ndarray) -> np.ndarray:
    """Unchecked inner bracket [H, N(H)] for a float64 square matrix."""
    N = _map_N(H)
    return H @ N - N @ H


def _dense_field():
    """Return (rhs, resid2), the dense double-bracket field for the stepper.

    rhs(H, out) is the unchecked rhs_matrix, written to out if given; it
    keeps the inner bracket K = [H, N(H)] it builds. resid2() is the squared
    Frobenius norm of the last K, summed left to right in C order.
    """
    K = np.zeros(0)

    def rhs(H: np.ndarray, out=None) -> np.ndarray:
        nonlocal K
        K = _bracket_K(H)
        return np.subtract(H @ K, K @ H, out=out)

    def resid2() -> float:
        return _sum_in_order(K * K)

    return rhs, resid2


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
    return float(residual_norms(as_offdiag(a))[0])


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
    """The limit theorem's first hypothesis: finite, nonzero entries.

    The one nonzero check; its ValidationFailure names the first zero entry.
    Eigenvalue distinctness is the second hypothesis, checked where the
    spectrum is (spectral.spectrum_zero_diag, predict_limit).
    """
    a = as_offdiag(a)
    if a.size and np.any(a == 0.0):
        idx = int(np.flatnonzero(a == 0.0)[0]) + 1
        raise ValidationFailure(
            f"off-diagonal entry a_{idx} is zero; the limit theorem needs "
            "every entry nonzero"
        )
    return a
