"""Hot numeric kernels: the flow stepper and the batched Sturm eigensolver.

One adaptive Dormand-Prince 5(4) stepper integrates both forms of the flow.
It takes the right-hand side and the squared equilibrium residual as
arguments and works on a state of any shape:

* ``integrate_offdiag_kernel`` steps the off-diagonal on the log-magnitude
  chart ``v = log|a / ||a0|| |`` in normalised time, where the field is
  smooth, scale-free and leaves every sign where it started;
* ``integrate_dense_kernel`` steps a full symmetric matrix, normalised by
  the caller, with the nested-commutator field [H, [H, N(H)]].

Everything is plain numpy. A step keeps y and its stages k1, k2, ... as the
rows of one buffer, and each stage argument, the new state and the error
estimate is one ``np.dot`` of a row of the tableau with those rows; BLAS adds
its terms in its own order. The sums that decide step acceptance and
stopping, the error norm and the residual, run left to right, so they do not
depend on numpy's pairwise summation.
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
STATUS_BUDGET = 3

# the most steps one run may take: a run stops with STATUS_BUDGET once its
# accepted plus rejected steps reach it; read at call time
MAX_STEPS = 10**6

# Dormand-Prince 5(4) on the stage buffer's rows (y, k1, ..., k7): one row
# per argument of k2 ... k6, then y_new (the argument of k7), then the error
# estimate; a row times h, but for its 1 on y, is a sum over its prefix of rows
_DP = np.array([
    [1, 1 / 5, 0, 0, 0, 0, 0, 0],
    [1, 3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [1, 44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [1, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [1, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [1, 35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
    [0, 71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40],
])

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


def _integrate(y0, rhs, resid2, t_max, abs_tol, rel_tol, eq_eps, dt_min,
               stride0, max_rows):
    """Integrate dy/dt = rhs(y) from y0, recording sampled states.

    Stops at t_max, or once resid2(y) <= eq_eps^2; a step that ends within
    1e-14 * t_max of t_max ends exactly on it. The first trial step is set by
    y0 and its slope (Hairer, Norsett & Wanner, Solving ODEs I, II.4); a step
    below dt_min is an underflow. The run stops with STATUS_BUDGET once it
    has taken MAX_STEPS steps, accepted or rejected.

    The state y and the stages k1 ... k7 are the rows of one buffer Y,
    flattened. Each step scales the tableau _DP by h, all but its column on
    y, and each stage argument and y_new is one np.dot of a tableau
    row with the prefix of Y it reads; the error estimate is one np.dot over
    the k rows alone. On the log chart a zero entry is y = -inf and
    0 * (-inf) is NaN, so no row may have a zero on y, and the error row
    leaves y out. Its zero on k2 is harmless: the k rows of an accepted step
    are finite, and a non-finite one gives a NaN error and a rejection.

    Returns (times_buf, states_buf, row_count, status, naccept, nreject).
    Buffers are oversized; the caller slices to row_count. When the row buffer
    fills, every other retained row is dropped and the stride doubles, so the
    sample count never exceeds max_rows while t=0 stays in place. Every exit
    but an underflow or a spent budget records the final state as the last
    row.
    """
    shape = y0.shape
    times = np.empty(max_rows)
    states = np.empty((max_rows,) + shape)
    times[0] = 0.0
    states[0] = y0
    count = 1
    stride = stride0

    C = _DP.copy()  # _DP with every column but y's times h
    last = _DP.shape[1] - 1
    Y = np.empty((last + 1, y0.size))  # rows y, k1, ..., k_last
    args = np.empty((last - 1, y0.size))  # stage arguments; y_new is the last
    Y[0] = y0.reshape(-1)
    y, k1, y_new = Y[0].reshape(shape), Y[1].reshape(shape), args[-1]
    stages = [(C[s, :s + 2], Y[:s + 2], args[s], args[s].reshape(shape),
               Y[s + 2].reshape(shape)) for s in range(last - 1)]
    err_est = np.empty(y0.size)

    eq2 = eq_eps * eq_eps
    t = 0.0
    status = STATUS_HORIZON
    naccept = 0
    nreject = 0
    err_prev = 1.0e-4
    just_rejected = False

    rhs(y, out=k1)
    # a zero entry is v = -inf on the log chart
    y_inf = np.abs(y[np.isfinite(y)]).max(initial=0.0)
    h = min(0.1 * (1.0 + y_inf) / (1.0 + np.abs(k1).max(initial=0.0)),
            1e-3 * t_max)
    t_edge = t_max * (1.0 - 1.0e-14)

    while t < t_edge:
        if not h >= dt_min:  # a NaN step is an underflow
            status = STATUS_UNDERFLOW
            break
        if naccept + nreject >= MAX_STEPS:
            status = STATUS_BUDGET
            break
        if h > t_max - t:
            h = t_max - t
        t_new = t + h
        if t_new >= t_edge:
            t_new = t_max

        np.multiply(_DP[:, 1:], h, out=C[:, 1:])
        for coef, rows, arg, arg_in, k_out in stages:
            np.dot(coef, rows, out=arg)
            rhs(arg_in, out=k_out)
        err = 0.0
        if y.size:
            # the error row leaves out y: 0 * (-inf) would be NaN
            np.dot(C[-1, 1:], Y[1:], out=err_est)
            r = err_est / (abs_tol + rel_tol * np.maximum(np.abs(Y[0]), np.abs(y_new)))
            err = np.sqrt(_sum_in_order(r * r) / y.size)
        accept = err <= 1.0

        if accept:
            t = t_new
            Y[0] = y_new
            Y[1] = Y[last]
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


def integrate_offdiag_kernel(v0, t_max, abs_tol, rel_tol, eq_eps, dt_min,
                             stride0, max_rows):
    """Integrate the off-diagonal flow on the log-magnitude chart.

    The state is v = log|b| for the unit-norm off-diagonal b = a0 / ||a0||,
    stepped in normalised time tau = ||a0||^2 t with the field of
    :func:`jacobi.log_chart_rhs`; t_max, dt_min and eq_eps are in
    those units, and eq_eps bounds the residual of exp(v). A zero entry is
    v = -inf: it stays there and adds 0 to the field, the residual and the
    error norm. abs_tol and rel_tol bound the error in v, which is the
    relative error of each entry. See :func:`_integrate` for the return value.
    """
    return _integrate(v0, log_chart_rhs(v0.size), _resid2_log, t_max, abs_tol,
                      rel_tol, eq_eps, dt_min, stride0, max_rows)


def integrate_dense_kernel(H0, t_max, abs_tol, rel_tol, eq_eps, dt_min,
                           stride0, max_rows):
    """Integrate the dense double-bracket flow on an n-by-n symmetric matrix.

    Same stepping and recording as :func:`integrate_offdiag_kernel`, in matrix
    coordinates; the residual is the Frobenius norm of [H, N(H)]. The caller
    passes H0 / c and times in tau = c^2 t, so both are unit-sized.
    """
    return _integrate(H0, _rhs_dense, _resid2_dense, t_max, abs_tol, rel_tol,
                      eq_eps, dt_min, stride0, max_rows)


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
