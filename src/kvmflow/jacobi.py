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
    "log_chart_stable",
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


def _map_N(A: np.ndarray, out=None, coeff=None) -> np.ndarray:
    """Unchecked map_N for a float64 square matrix (the integrator's hot path).

    Writes to out (C-ordered; zeroed first) and takes coeff as the i-2, if given.
    """
    n = A.shape[0]
    N = np.empty((n, n)) if out is None else out  # C-ordered: reshape is a view
    N.fill(0.0)
    if n >= 2:
        coeff = np.arange(n - 1, dtype=np.float64) - 1.0 if coeff is None else coeff
        v = coeff * np.diagonal(A, 1)
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
    of the state of the last rhs call, read off its u: the products and their
    running sum, left to right, are written in place to one buffer.
    """
    u = np.zeros(k + 2)
    inner = u[1:-1]
    before, after, left, right = u[:-2], u[2:], inner[:-1], inner[1:]
    prods = np.empty(max(k - 1, 0))
    exp, subtract, multiply, accumulate = np.exp, np.subtract, np.multiply, np.add.accumulate

    def rhs(w: np.ndarray, out=None) -> np.ndarray:
        exp(w, inner)
        return subtract(before, after, out)

    def resid2() -> float:
        multiply(left, right, prods)
        return 2.0 * accumulate(prods, 0, None, prods).item(-1) if k > 1 else 0.0

    return rhs, resid2


def limit_slots(n: int) -> np.ndarray:
    """Mask of the off-diagonal slots that carry a magnitude in the limit.

    For even n these are the 0-based slots 0, 2, ...; for odd n the leading
    1x1 zero block shifts them to 1, 3, .... The other slots tend to zero.
    """
    return np.arange(n - 1) % 2 == n % 2


def log_chart_stable(w: np.ndarray) -> bool:
    """Whether the log-chart state w has the paper's limit pattern, not a saddle's:
    strictly increasing on the live slots (limit_slots), every other entry
    below their smallest. A zero entry (w = -inf) splits the matrix into
    blocks that flow on their own, so each block of k entries between zero
    entries must have the pattern of limit_slots(k + 1)."""
    dead = np.isneginf(w)
    if dead.any():
        cuts = [-1, *np.flatnonzero(dead).tolist(), w.size]
        return all(log_chart_stable(w[i + 1:j]) for i, j in zip(cuts, cuts[1:]))
    live = limit_slots(w.size + 1)
    on = w[live]
    return bool(np.all(on[:-1] < on[1:])
                and w[~live].max(initial=-np.inf) < on.min(initial=np.inf))


def rhs_matrix(H) -> np.ndarray:
    """Dense double-bracket right-hand side [H, [H, N(H)]] of a symmetric H."""
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValidationFailure(f"expected a square matrix, got shape {H.shape}")
    as_offdiag(np.diagonal(H, 1))  # the entries N reads must be finite
    if not np.array_equal(H, H.T):  # the field's formula needs H = H^T
        raise ValidationFailure("expected a symmetric matrix")
    return _dense_field(H.shape[0])[0](H)


def _bracket_K(H: np.ndarray, N=None, coeff=None) -> np.ndarray:
    """Unchecked [H, N(H)] = M - M^T, M = H N(H), of a symmetric H; N, coeff: see _map_N."""
    M = H @ _map_N(H, N, coeff)
    return M - M.T


def _dense_field(n: int):
    """Return (rhs, resid2), the dense double-bracket field for the stepper.

    rhs(H, out) is the unchecked rhs_matrix of a symmetric n x n H, written
    to out if given: P + P^T, P = H K, with K = [H, N(H)] kept. resid2() is
    the squared Frobenius norm of the last K, summed left to right in C order.
    """
    K = np.zeros(0)
    N, coeff = np.zeros((n, n)), np.arange(n - 1, dtype=np.float64) - 1.0

    def rhs(H: np.ndarray, out=None) -> np.ndarray:
        nonlocal K
        K = _bracket_K(H, N, coeff)
        P = H @ K
        return np.add(P, P.T, out=out)

    def resid2() -> float:
        return _sum_in_order(K * K)

    return rhs, resid2


def lyapunov_f(H) -> float:
    """Lyapunov value -1/4 ||H - N(H)||_F^2 + 1/4 ||N(H)||_F^2."""
    H = np.asarray(H, dtype=np.float64)
    NH = map_N(H)
    return -0.25 * float(np.sum((H - NH) ** 2)) + 0.25 * float(np.sum(NH**2))


def lyapunov_f_traceform(H):
    """Equivalent trace form -1/4 ||H||_F^2 + 1/2 tr(N(H) H), without N(H).

    N(H) lives on the two off-diagonals, so 1/2 tr(N(H) H) = 1/2 sum_i (i-2)
    H_{i,i+1} (H_{i,i+1} + H_{i+1,i}) (1-based): exact for any square H, and
    sum_i (i-2) H_{i,i+1}^2 to the bit for a symmetric one. H is an (n, n)
    matrix, giving a float, or an (m, n, n) stack, giving m values.
    """
    H = np.asarray(H, dtype=np.float64)
    sd = np.diagonal(H, 1, axis1=-2, axis2=-1)
    as_offdiag(sd)  # the entries N reads must be finite
    coeff = np.arange(H.shape[-1] - 1, dtype=np.float64) - 1.0
    cross = (sd * (sd + np.diagonal(H, -1, axis1=-2, axis2=-1))) @ coeff
    f = -0.25 * np.sum(H * H, axis=(-2, -1)) + 0.5 * cross
    return float(f) if H.ndim == 2 else f


def lyapunov_f_offdiag(states: np.ndarray) -> np.ndarray:
    """lyapunov_f_traceform for a batch of off-diagonal rows, shape (m, n-1):
    with ||H||_F^2 = 2 sum_i a_i^2 it is sum_i (i - 5/2) a_i^2 (1-based), one
    product of the squares with a weight vector."""
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    return (states * states) @ (np.arange(states.shape[1], dtype=np.float64) - 1.5)


def equilibrium_residual(a) -> float:
    """||map_K(a)||_F as c (c residual_norms(log|a / c|)), c = ||a||: k_norms[0]
    of the run of a, 0 on every equilibrium and where each product underflows."""
    a = as_offdiag(a)
    c = scaled_norm(a) or 1.0  # any unit serves the zero vector
    with np.errstate(divide="ignore"):
        return float(c * (c * residual_norms(np.log(np.abs(a) / c))[0]))


def residual_norms(rows: np.ndarray) -> np.ndarray:
    """The stop test's ||K||_F of the kernel's rows v = log|a / c|, (m, n-1):
    sqrt(2 sum u_i u_{i+1}), u = exp(2 v), to the bit log_chart_rhs's sqrt(resid2()) at 2 v."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if rows.shape[1] < 2:
        return np.zeros(rows.shape[0])
    u = np.exp(2.0 * rows)
    prods = u[:, :-1] * u[:, 1:]
    return np.sqrt(2.0 * np.add.accumulate(prods, axis=1)[:, -1])


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
