"""Hot numeric kernels: the flow stepper and the batched Sturm eigensolver.

One Dormand-Prince 5(4) / fixed-step RK4 stepper integrates both forms of the
flow. It takes the right-hand side and the squared equilibrium residual as
arguments and works on a state of any shape:

* ``integrate_offdiag_kernel`` steps the off-diagonal on the log-magnitude
  chart ``v = log|a / ||a0|| |`` in normalised time, where the field is
  smooth, scale-free and leaves every sign where it started;
* ``integrate_dense_kernel`` steps a full symmetric matrix with the
  nested-commutator field [H, [H, N(H)]].

Everything is plain numpy. Sums that decide step acceptance and stopping run
left to right, so results do not depend on numpy's pairwise summation.
"""

import numpy as np

from .jacobi import _bracket_K, _rhs_dense, log_chart_rhs


def lane() -> str:
    """Kernel lane; there is one, ``"numpy"``."""
    return "numpy"


# trajectory status codes shared with flow.py
STATUS_CONVERGED = 0
STATUS_HORIZON = 1
STATUS_UNDERFLOW = 2

# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# PI controller exponents for a 4th-order error estimate
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _sum_in_order(x: np.ndarray) -> float:
    """Sum of all entries, added left to right in C order."""
    return np.add.accumulate(x.reshape(-1))[-1] if x.size else 0.0


def _resid2_offdiag(a: np.ndarray) -> float:
    """Squared equilibrium residual ||K||_F^2 = 2 sum (a_i a_{i+1})^2."""
    p = a[:-1] * a[1:]
    return 2.0 * _sum_in_order(p * p)


def _resid2_log(v: np.ndarray) -> float:
    """Squared residual 2 sum exp(2 (v_i + v_{i+1})) of the unit rows exp(v).

    Signs drop out of the squares; an entry at v = -inf adds exactly 0.
    """
    return _resid2_offdiag(np.exp(v))


def _resid2_dense(H: np.ndarray) -> float:
    """Squared Frobenius norm of the inner bracket [H, N(H)]."""
    K = _bracket_K(H)
    return _sum_in_order(K * K)


def _halve_rows(times, states, count) -> int:
    """Keep t=0 and every other retained row after it; return the new count."""
    half_n = (count + 1) // 2
    times[1:half_n] = times[2:2 * half_n:2]
    states[1:half_n] = states[2:2 * half_n:2]
    return half_n


def _integrate(y0, rhs, resid2, t_max, h_init, fixed_step, abs_tol, rel_tol,
               eq_eps, dt_min, stride0, max_rows):
    """Integrate dy/dt = rhs(y) from y0, recording sampled states.

    Stops at t_max, or once resid2(y) <= eq_eps^2. A fixed-step run takes its
    time from the step index, k * h_init, so no rounding accumulates; a step
    that ends within 1e-14 * t_max of t_max ends exactly on it.

    Returns (times_buf, states_buf, row_count, status, naccept, nreject).
    Buffers are oversized; the caller slices to row_count. When the row buffer
    fills, every other retained row is dropped and the stride doubles, so the
    sample count never exceeds max_rows while t=0 stays in place. Every exit
    but an underflow records the final state as the last row.
    """
    times = np.empty(max_rows)
    states = np.empty((max_rows,) + y0.shape)
    times[0] = 0.0
    states[0] = y0
    count = 1
    stride = stride0

    eq2 = eq_eps * eq_eps
    t = 0.0
    y = y0.copy()
    h = h_init
    status = STATUS_HORIZON
    naccept = 0
    nreject = 0
    err_prev = 1.0e-4
    just_rejected = False

    k1 = rhs(y)
    t_edge = t_max * (1.0 - 1.0e-14)

    while t < t_edge:
        if fixed_step:
            t_new = (naccept + 1) * h_init
        else:
            if not h >= dt_min:  # a NaN step is an underflow
                status = STATUS_UNDERFLOW
                break
            if h > t_max - t:
                h = t_max - t
            t_new = t + h
        if t_new >= t_edge:
            t_new = t_max
        if fixed_step:
            h = t_new - t

        err = 0.0
        if fixed_step:
            half = 0.5 * h
            k2 = rhs(y + half * k1)
            k3 = rhs(y + half * k2)
            k4 = rhs(y + h * k3)
            y_new = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            k_last = rhs(y_new)
            accept = True
        else:
            k2 = rhs(y + h * (_A21 * k1))
            k3 = rhs(y + h * (_A31 * k1 + _A32 * k2))
            k4 = rhs(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
            k5 = rhs(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
            k6 = rhs(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
            y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
            k_last = rhs(y_new)
            err_est = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k_last)

            if y.size:
                r = err_est / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
                err = np.sqrt(_sum_in_order(r * r) / y.size)
            accept = err <= 1.0

        if accept:
            t = t_new
            y = y_new
            k1 = k_last
            naccept += 1

            r2 = resid2(y)
            done = r2 <= eq2 or t >= t_edge
            if naccept % stride == 0 or done:
                if count == max_rows:
                    count = _halve_rows(times, states, count)
                    stride *= 2
                if times[count - 1] < t:
                    times[count] = t
                    states[count] = y
                    count += 1
            if r2 <= eq2:
                status = STATUS_CONVERGED
                break
        else:
            nreject += 1

        if not fixed_step:
            if err == 0.0:
                fac = _FAC_MAX
            else:
                fac = _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA
            # written so that a NaN error estimate (an overflowing trial step,
            # already rejected above) shrinks h by _FAC_MIN
            fac = min(fac, _FAC_MAX) if fac >= _FAC_MIN else _FAC_MIN
            if accept:
                if just_rejected:
                    fac = min(fac, 1.0)
                err_prev = max(err, 1.0e-4)
                just_rejected = False
            else:
                just_rejected = True
                fac = min(fac, 1.0)
            h = h * fac

    return times, states, count, status, naccept, nreject


def integrate_offdiag_kernel(v0, t_max, h_init, fixed_step, abs_tol, rel_tol,
                             eq_eps, dt_min, stride0, max_rows):
    """Integrate the off-diagonal flow on the log-magnitude chart.

    The state is v = log|b| for the unit-norm off-diagonal b = a0 / ||a0||,
    stepped in normalised time tau = ||a0||^2 t with the field of
    :func:`jacobi.log_chart_rhs`; t_max, h_init, dt_min and eq_eps are in
    those units, and eq_eps bounds the residual of exp(v). A zero entry is
    v = -inf: it stays there and adds 0 to the field, the residual and the
    error norm. abs_tol and rel_tol bound the error in v, which is the
    relative error of each entry. See :func:`_integrate` for the return value.
    """
    return _integrate(v0, log_chart_rhs(v0.size), _resid2_log, t_max, h_init,
                      fixed_step, abs_tol, rel_tol, eq_eps, dt_min, stride0,
                      max_rows)


def integrate_dense_kernel(H0, t_max, h_init, fixed_step, abs_tol, rel_tol,
                           eq_eps, dt_min, stride0, max_rows):
    """Integrate the dense double-bracket flow on an n-by-n symmetric matrix.

    Same stepping and recording as :func:`integrate_offdiag_kernel`, in matrix
    coordinates; the residual is the Frobenius norm of [H, N(H)].
    """
    return _integrate(H0, _rhs_dense, _resid2_dense, t_max, h_init, fixed_step,
                      abs_tol, rel_tol, eq_eps, dt_min, stride0, max_rows)


# bisection steps per bracket before sturm_batch gives up (ok=0)
_MAX_BISECT = 128
# half-width of a warm bracket, relative to 1 + the row's Gershgorin bound;
# the verifier's spectral drift bound has the same form
_WARM_RADIUS = 1.0e-7


def _sturm_counter(diag, e2, pivmin, shape):
    """Return count(x): the number of eigenvalues <= x for each entry of x.

    Counts negative pivots of the LDL^T recurrence, zeros forced negative
    (LAPACK convention). x has the given shape (m, k), one row per
    off-diagonal row. The scratch arrays are allocated once here, and count
    returns the same buffer on every call.
    """
    e2T = np.ascontiguousarray(e2.T)[:, :, None]  # (n-1, m, 1)
    neg_pivmin = -pivmin
    q = np.empty(shape)
    t = np.empty(shape)
    flag = np.empty(shape, dtype=bool)
    cnt = np.empty(shape, dtype=np.int64)

    def clamp_and_count():
        np.abs(q, out=t)
        np.less(t, pivmin, out=flag)
        np.copyto(q, neg_pivmin, where=flag)
        np.less_equal(q, 0.0, out=flag)
        np.add(cnt, flag, out=cnt)

    def count(x):
        cnt.fill(0)
        np.subtract(diag[0], x, out=q)
        clamp_and_count()
        for i in range(1, e2T.shape[0] + 1):
            np.divide(e2T[i - 1], q, out=t)
            np.subtract(diag[i], x, out=q)
            np.subtract(q, t, out=q)
            clamp_and_count()
        return cnt

    return count


def sturm_batch(diag, offdiags, tol, *, guess=None):
    """Sturm-sequence bisection for a batch of symmetric tridiagonals.

    diag: (n,) shared diagonal; offdiags: (m, n-1) batch of off-diagonals.
    Returns (eigs (m, n) ascending per row, ok flag); ok=0 means some bracket
    failed to shrink below 2*tol within _MAX_BISECT iterations.

    A zero diagonal gives a (+/-)-symmetric spectrum: only the floor(n/2)
    nonnegative eigenvalues are bisected, on [0, Gershgorin bound], and
    mirrored; odd n gets an exact 0 in the middle. Otherwise all n
    eigenvalues are bisected on the Gershgorin interval.

    guess, an (n,) or (m, n) array of approximate eigenvalues (ascending),
    brackets each eigenvalue as guess +/- 1e-7 * (1 + Gershgorin bound)
    instead. Two Sturm counts confirm each such bracket; a bracket that does
    not hold its eigenvalue falls back to the cold one, so the result is
    always a true bisection result.
    """
    m, nm1 = offdiags.shape
    n = nm1 + 1
    e2 = offdiags * offdiags
    pivmin = 1.0e-292 * np.maximum(1.0, e2.max(axis=1))[:, None] if nm1 else \
        np.full((m, 1), 1.0e-292)

    rad = np.zeros((m, n))
    if nm1:
        rad[:, :-1] += np.abs(offdiags)
        rad[:, 1:] += np.abs(offdiags)
    lo0 = (diag[None, :] - rad).min(axis=1)
    hi0 = (diag[None, :] + rad).max(axis=1)
    bound = np.maximum(np.abs(lo0), np.abs(hi0))
    pad = 2.0 * tol + 1.0e-12 * (1.0 + bound)
    lo0 -= pad
    hi0 += pad

    zero_diag = not np.any(diag)
    if zero_diag:
        # the bisection's first midpoint would be exactly 0, which puts every
        # positive eigenvalue in [0, hi0]
        k = n // 2
        need = np.arange(n - k + 1, n + 1)
        lo = np.zeros((m, k))
    else:
        k = n
        need = np.arange(1, n + 1)
        lo = np.repeat(lo0[:, None], n, axis=1)
    hi = np.repeat(hi0[:, None], k, axis=1)

    if guess is not None and k:
        g = np.broadcast_to(guess, (m, n))[:, need - 1]
        r = (_WARM_RADIUS * (1.0 + bound))[:, None]
        warm = np.concatenate([g - r, g + r], axis=1)
        cnt = _sturm_counter(diag, e2, pivmin, warm.shape)(warm)
        holds = (cnt[:, :k] < need) & (cnt[:, k:] >= need)
        lo = np.where(holds, warm[:, :k], lo)
        hi = np.where(holds, warm[:, k:], hi)

    count = _sturm_counter(diag, e2, pivmin, (m, k))
    x = np.empty((m, k))
    width = np.empty((m, k))
    take_hi = np.empty((m, k), dtype=bool)
    for _ in range(_MAX_BISECT):
        np.subtract(hi, lo, out=width)
        if width.max(initial=0.0) <= 2.0 * tol:
            break
        np.add(lo, hi, out=x)
        x *= 0.5
        np.greater_equal(count(x), need, out=take_hi)
        np.copyto(hi, x, where=take_hi)
        np.logical_not(take_hi, out=take_hi)
        np.copyto(lo, x, where=take_hi)

    ok = 1 if (hi - lo).max(initial=0.0) <= 2.0 * tol else 0
    mid = 0.5 * (lo + hi)
    if not zero_diag:
        return mid, ok
    eigs = np.zeros((m, n))
    eigs[:, n - k:] = mid
    eigs[:, :k] = -mid[:, ::-1]
    return eigs, ok
