"""Hot numeric kernels: the flow stepper and the batched Sturm eigensolver.

One adaptive stepper, DOP853 (the Dormand-Prince 8(5,3) pair: twelve stages,
an eighth-order step and fifth- and third-order error estimates), integrates
both forms of the flow. It takes the field, the squared equilibrium residual and
the chart's stable-pattern test, if any, and works on a state of any shape:

* ``integrate_offdiag_kernel`` steps the off-diagonal on the log-magnitude
  chart, where the field is smooth, scale-free and leaves every sign where
  it started. It takes and returns ``v = log|a / ||a0|| |`` in normalised
  time tau, and steps ``w = 2 v = log b^2`` in ``s = 2 tau``: the Volterra
  lattice, one exp and one subtraction per evaluation. Doubling is exact,
  so the steps are those of stepping v, to the bit, and tol is still a
  relative accuracy per entry;
* ``integrate_dense_kernel`` steps a full symmetric matrix, normalised by
  the caller, with the nested-commutator field [H, [H, N(H)]].

Everything is plain numpy. A step keeps y and its stages k1, ..., k12 as
the rows of one buffer; each stage argument and the new state is one
product of a row of the stage matrix with those rows, and the two error
estimates are one product of its last two rows; BLAS adds its terms in its
own order. An accepted step writes k13 = f(y_new) into the k1 row (FSAL).
Each product is the bound ``ndarray.dot`` of its coefficient view: the C
routine of ``np.dot`` on the same operands, without the Python dispatcher
that ``np.dot`` runs on every call. The sums that decide step acceptance
and stopping, the error norm and the residual, run left to right, so they
do not depend on numpy's pairwise summation. Each field hands the stepper
the residual of its last evaluation, the FSAL stage at the new state, so
the stop test computes no field twice. The stepper owns its stop rules: a
step below its floor or a spent step budget raises NonConvergence where it
happens.

``sturm_batch`` solves a batch of symmetric tridiagonals with Sturm counts,
each one pass over the LDL^T pivots for every entry at once; a pivot runs
the pivmin clamp only when one of its entries needs it. A cold solve is
bisection: each pass halves every bracket of the batch. A solve near a
known spectrum (the drift rows of a trajectory) takes one Newton step per
eigenvalue from it and certifies each value with two Sturm counts at
+/- tol; a row that does not certify is solved cold. A bisection bracket
that fails to shrink raises NonConvergence.
"""

import math

import numpy as np

from .errors import NonConvergence
from .jacobi import _dense_field, log_chart_rhs, log_chart_stable


def lane() -> str:
    """Kernel lane; there is one, ``"numpy"``."""
    return "numpy"


# how a run stopped, the status of its trajectory
STATUS_CONVERGED = "converged"
STATUS_HORIZON = "horizon_reached"

# the most steps one run may take: a run raises NonConvergence once its
# accepted plus rejected steps reach it; read at call time
MAX_STEPS = 10**6

# DOP853, the Dormand-Prince 8(5,3) pair (Hairer, Norsett & Wanner, Solving
# ODEs I, II.5; the coefficients of their dop853). Stage i + 2 has the
# argument y + h sum_j a_ij k_j; entry i holds its nonzero a_ij by j. Its
# last entry is y_new, whose weights b_j are eighth order; no entry reads
# k13 = f(y_new), which is the next step's k1 (FSAL).
_DOP853_A = (
    {1: 5.26001519587677318785587544488e-2},
    {1: 1.97250569845378994544595329183e-2, 2: 5.91751709536136983633785987549e-2},
    {1: 2.95875854768068491816892993775e-2, 3: 8.87627564304205475450678981324e-2},
    {1: 2.41365134159266685502369798665e-1, 3: -8.84549479328286085344864962717e-1,
     4: 9.24834003261792003115737966543e-1},
    {1: 3.7037037037037037037037037037e-2, 4: 1.70828608729473871279604482173e-1,
     5: 1.25467687566822425016691814123e-1},
    {1: 3.7109375e-2, 4: 1.70252211019544039314978060272e-1,
     5: 6.02165389804559606850219397283e-2, 6: -1.7578125e-2},
    {1: 3.70920001185047927108779319836e-2, 4: 1.70383925712239993810214054705e-1,
     5: 1.07262030446373284651809199168e-1, 6: -1.53194377486244017527936158236e-2,
     7: 8.27378916381402288758473766002e-3},
    {1: 6.24110958716075717114429577812e-1, 4: -3.36089262944694129406857109825,
     5: -8.68219346841726006818189891453e-1, 6: 2.75920996994467083049415600797e1,
     7: 2.01540675504778934086186788979e1, 8: -4.34898841810699588477366255144e1},
    {1: 4.77662536438264365890433908527e-1, 4: -2.48811461997166764192642586468,
     5: -5.90290826836842996371446475743e-1, 6: 2.12300514481811942347288949897e1,
     7: 1.52792336328824235832596922938e1, 8: -3.32882109689848629194453265587e1,
     9: -2.03312017085086261358222928593e-2},
    {1: -9.3714243008598732571704021658e-1, 4: 5.18637242884406370830023853209,
     5: 1.09143734899672957818500254654, 6: -8.14978701074692612513997267357,
     7: -1.85200656599969598641566180701e1, 8: 2.27394870993505042818970056734e1,
     9: 2.49360555267965238987089396762, 10: -3.0467644718982195003823669022},
    {1: 2.27331014751653820792359768449, 4: -1.05344954667372501984066689879e1,
     5: -2.00087205822486249909675718444, 6: -1.79589318631187989172765950534e1,
     7: 2.79488845294199600508499808837e1, 8: -2.85899827713502369474065508674,
     9: -8.87285693353062954433549289258, 10: 1.23605671757943030647266201528e1,
     11: 6.43392746015763530355970484046e-1},
    {1: 5.42937341165687622380535766363e-2, 6: 4.45031289275240888144113950566,
     7: 1.89151789931450038304281599044, 8: -5.8012039600105847814672114227,
     9: 3.1116436695781989440891606237e-1, 10: -1.52160949662516078556178806805e-1,
     11: 2.01365400804030348374776537501e-1, 12: 4.47106157277725905176885569043e-2},
)
# error weights b - bhat of the embedded 5th-order solution
_DOP853_E5 = {
    1: 0.1312004499419488073250102996e-1, 6: -0.1225156446376204440720569753e+1,
    7: -0.4957589496572501915214079952, 8: 0.1664377182454986536961530415e+1,
    9: -0.3503288487499736816886487290, 10: 0.3341791187130174790297318841,
    11: 0.8192320648511571246570742613e-1, 12: -0.2235530786388629525884427845e-1,
}
# error weights b - bhat of the embedded 3rd-order solution, whose weights
# are 0.244..., 0.733... and 0.0220... on k1, k9 and k12
_DOP853_E3 = dict(_DOP853_A[-1])
_DOP853_E3[1] -= 0.244094488188976377952755905512
_DOP853_E3[9] -= 0.733846688281611857341361741547
_DOP853_E3[12] -= 0.220588235294117647058823529412e-1


def _tableau():
    """The stage matrix below: a 1 on y for each stage row, then its a_ij."""
    rows = _DOP853_A + (_DOP853_E5, _DOP853_E3)
    T = np.zeros((len(rows), len(_DOP853_A) + 1))
    T[:len(_DOP853_A), 0] = 1.0
    for i, row in enumerate(rows):
        for j, a in row.items():
            T[i, j] = a
    return T


# one row per argument of k2 ... k12, then y_new, then the 5th- and 3rd-order
# error estimates, over the stage buffer's rows (y, k1, ..., k12); a row
# times h, but for its 1 on y, is a sum over its prefix of rows
_DOP853 = _tableau()

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 10.0
# PI controller exponents for the combined error estimate, which scales like
# h^8: n5 ~ h^12 over sqrt(n3) ~ h^4
_PI_ALPHA = 0.7 / 8.0
_PI_BETA = 0.4 / 8.0


def _integrate(y0, rhs, resid2, t_max, tol, eq_eps, max_rows, unit, c=1.0, stable=None):
    """Integrate dy/dt = rhs(y) from y0, recording sampled states.

    rhs(y, out) writes the field at y to out; resid2() returns the squared
    equilibrium residual of the state of the last rhs call. Stops at t_max,
    or at the first accepted state y that meets the stop rule: c * (c *
    sqrt(resid2())) <= eq_eps (the stored residual) and, if given, stable(y),
    which is asked only then. The caller asks the same rule of y0 before it
    calls here. A step that ends within 1e-14 * t_max of t_max ends exactly
    on it.
    The first trial step, 0.1 (unit + |y0|_inf) / (1 + |f(y0)|_inf), is set
    by y0 and its slope (Hairer, Norsett & Wanner, Solving ODEs I, II.4). On
    a unit state the field is O(1), so t_max / unit = 1 is the run's time
    scale, and the step floor is 1e-14 of it, or of t_max if shorter. A
    step below the floor (or a NaN step) raises NonConvergence, and so does
    a run that has taken MAX_STEPS steps, accepted or rejected.

    The step is DOP853: stages k2 ... k12 from k1, then y_new. An accepted
    step evaluates k13 = f(y_new), the next step's k1 (FSAL), straight into
    the k1 row, so resid2() after it is the residual at the new y: 12 field
    calls for an accepted step, 11 for a rejected one. y and k1 ... k12 are
    the rows of one buffer Y, flattened. Each step scales the stage matrix
    _DOP853 by h and puts back its column on y; each stage argument and
    y_new is one product of a row with the prefix of Y it reads. A stage
    argument is read once, by the field call after its product, so one row
    holds each in turn; y_new has its own. The product is the bound dot of
    the row's view of C, made once per run and seeing each in-place
    rescaling of C; np.dot would cost about half as much again on these
    short rows, 13 calls a step. The 5th- and 3rd-order error estimates are
    one such product over k1 ... k12 alone: on the log chart a zero entry is
    y = -inf and 0 * (-inf) is NaN, so no row may have a zero on y, and the
    error rows leave y out. Zeros on the k rows are harmless: the k rows of
    an accepted step are finite, and a non-finite one gives a NaN error and
    a rejection. The estimates are scaled by tol * (unit + max(|y|,
    |y_new|)) (Hairer's atol = unit * tol, rtol = tol), the error norm is
    Hairer's combined one, err = n5 / sqrt((n5 + 0.01 n3) size) of the sums
    of squares n5 and n3 of the scaled estimates, each summed left to right,
    and the PI controller takes the exponents 0.7/8 and 0.4/8.

    unit is the size of a unit entry in the state's coordinates: 1, or 2 on
    the log chart, which steps w = 2 v. Doubling is exact in binary floating
    point, so a run of 2 y0 with unit 2, t_max times 2 and the field
    g(w) = f(w / 2) is the run of y0 under f to the bit: every state, stage
    argument, step, error estimate and the step floor is twice the other's,
    the field values and the scaled error estimates are the same.

    Returns (times, states, count, status, naccept, nreject): the recorded
    times (count,) and states (count,) + y0.shape, exactly count rows long,
    the status (STATUS_CONVERGED or STATUS_HORIZON) and the accepted and
    rejected step counts. Every stride-th accepted step is recorded, the
    stride starting at 1; a row due when max_rows rows are held first drops
    every other row after t=0 and doubles the stride, and is then recorded
    only if it is still due. So at most max_rows rows are ever held, evenly
    spaced in steps, memory grows with the rows recorded, not with
    max_rows, and the final state is the last row.
    """
    shape = y0.shape
    times = [0.0]
    states = [y0.copy()]
    stride = 1

    multiply, abs_, maximum = np.multiply, np.abs, np.maximum
    add, divide, accumulate, sqrt = np.add, np.divide, np.add.accumulate, math.sqrt
    safety, fac_min, fac_max, alpha, beta = _SAFETY, _FAC_MIN, _FAC_MAX, _PI_ALPHA, _PI_BETA
    C = _DOP853.copy()  # _DOP853 with every column but y's times h
    C_y, ones_y = C[:, 0], _DOP853[:, 0].copy()  # C's column on y, its value
    Y = np.empty((C.shape[1], y0.size))  # rows y, k1, ..., k12
    arg_row, y_new = np.empty((2, y0.size))  # a stage argument, y_new
    Y[0] = y0.reshape(-1)
    y_row = Y[0]
    y, k1, arg = y_row.reshape(shape), Y[1].reshape(shape), arg_row.reshape(shape)
    stages = [(C[s, :s + 2].dot, Y[:s + 2], Y[s + 2].reshape(shape))
              for s in range(len(Y) - 2)]
    new_dot = C[len(Y) - 2].dot
    err_est = np.empty((2, y0.size))  # the 5th- and 3rd-order estimates
    # the error rows leave out y: 0 * (-inf) would be NaN; sums holds n5 and n3
    err_dot, err_rows, sums = C[-2:, 1:].dot, Y[1:], err_est[:, -1]
    scale = np.empty(y0.size)  # the error scale of each entry
    abs_y = np.abs(y_row)
    abs_new = np.empty(y0.size)  # |y_new|, |y| of the next step if accepted
    tol_unit = tol * unit
    dt_min = unit * (1e-14 * min(t_max / unit, 1.0))

    t = 0.0
    status = STATUS_HORIZON
    naccept = 0
    nreject = 0
    err_prev = 1.0e-4
    just_rejected = False

    rhs(y, out=k1)
    # a zero entry is y = -inf on the log chart
    y_inf = np.abs(y[np.isfinite(y)]).max(initial=0.0)
    h = min(0.1 * (unit + y_inf) / (1.0 + np.abs(k1).max(initial=0.0)),
            1e-3 * t_max)
    t_edge = t_max * (1.0 - 1.0e-14)

    while t < t_edge:
        if not h >= dt_min:  # a NaN step is an underflow
            raise NonConvergence("adaptive step fell below 1e-14 of the run's "
                                 "time scale; loosen tolerances")
        if naccept + nreject >= MAX_STEPS:
            raise NonConvergence(
                f"adaptive run took {MAX_STEPS} steps before t_max; lower t_max")
        if h > t_max - t:
            h = t_max - t
        t_new = t + h
        if t_new >= t_edge:
            t_new = t_max

        multiply(_DOP853, h, C)
        C_y[...] = ones_y
        for coef_dot, rows, k_out in stages:
            coef_dot(rows, arg_row)
            rhs(arg, k_out)
        new_dot(Y, y_new)
        err_dot(err_rows, err_est)
        abs_(y_new, abs_new)
        maximum(abs_y, abs_new, out=scale)  # a positional out is deprecated
        multiply(scale, tol, scale)
        add(scale, tol_unit, scale)
        divide(err_est, scale, err_est)
        multiply(err_est, err_est, err_est)
        accumulate(err_est, 1, None, err_est)
        # in Python floats, so that an overflowing estimate gives a NaN
        # error (inf / inf) without a warning
        n5, n3 = sums.tolist()
        deno = n5 + 0.01 * n3
        err = n5 / sqrt((deno if deno > 0.0 else 1.0) * y.size)
        accept = err <= 1.0

        if accept:
            t = t_new
            y_row[...] = y_new
            rhs(y, k1)  # k13, the FSAL stage at the new y
            abs_y, abs_new = abs_new, abs_y
            naccept += 1

            stop = c * (c * sqrt(resid2())) <= eq_eps and (stable is None or stable(y))
            done = stop or t >= t_edge
            if len(times) == max_rows and (naccept % stride == 0 or done):
                del times[1::2], states[1::2]
                stride *= 2
            if (naccept % stride == 0 or done) and times[-1] < t:
                times.append(t)
                states.append(y.copy())
            if stop:
                status = STATUS_CONVERGED
                break
        else:
            nreject += 1

        if err == 0.0:
            fac = fac_max
        else:
            fac = safety * err ** -alpha * err_prev ** beta
        # written so that a NaN error estimate (an overflowing trial step,
        # already rejected above) shrinks h by _FAC_MIN
        fac = min(fac, fac_max) if fac >= fac_min else fac_min
        if accept:
            if just_rejected:
                fac = min(fac, 1.0)
            err_prev = max(err, 1.0e-4)
            just_rejected = False
        else:
            just_rejected = True
            fac = min(fac, 1.0)
        h = h * fac

    return np.array(times), np.array(states), len(times), status, naccept, nreject


def integrate_offdiag_kernel(v0, t_max, tol, eq_eps, max_rows, c=1.0):
    """Integrate the off-diagonal flow on the log-magnitude chart.

    The state is v = log|a0 / c|, c = ||a0||, in normalised time tau = c^2 t,
    the units of t_max; a run stops once c (c r), r the residual of exp(v), is
    at most eq_eps on the stable pattern (:func:`jacobi.log_chart_stable`),
    the rule flow._run asks of v0. A zero entry is v = -inf: it stays there,
    adds 0 to the field, the residual and the error norm, and splits the
    pattern test into blocks that must each have their own limit pattern.
    tol bounds the error in v, the relative error of each entry. See
    :func:`_integrate` for the return value.

    Inside, the run steps w = 2 v = log b^2 in s = 2 tau with the field of
    :func:`jacobi.log_chart_rhs` and unit 2 (see :func:`_integrate`), and
    halves the recorded times and states: the trajectory is the one of
    stepping v in tau to the bit, and tol keeps its meaning, while a field
    evaluation is one exp and one subtraction.
    """
    out = _integrate(2.0 * v0, *log_chart_rhs(v0.size), 2.0 * t_max, tol,
                     eq_eps, max_rows, 2.0, c, log_chart_stable)
    times, states = out[:2]
    times *= 0.5
    states *= 0.5
    return out


def integrate_dense_kernel(H0, t_max, tol, eq_eps, max_rows, c=1.0):
    """Integrate the dense double-bracket flow on an n-by-n symmetric matrix.

    Same stepping and recording as :func:`integrate_offdiag_kernel`, in matrix
    coordinates; the residual is the Frobenius norm of [H, N(H)]. The caller
    passes H0 / c, times in tau = c^2 t and the unit c, so both are
    unit-sized, eq_eps is in H0's units, and tol bounds the error in H0 / c.
    """
    return _integrate(H0, *_dense_field(H0.shape[0]), t_max, tol, eq_eps, max_rows,
                      1.0, c)


# bisection steps per bracket before _bisect raises NonConvergence
_MAX_BISECT = 128


def _sturm_counter(diag, e2T, pivmin, shape, flat):
    """Return count(x): the number of eigenvalues <= x for each entry of x.

    Counts negative pivots of the LDL^T recurrence, zeros forced negative
    (LAPACK convention): a pivot smaller than its row's pivmin in size is
    set to -pivmin. x has the given shape (m, k), one row per off-diagonal
    row; e2T is the squared off-diagonal as (n-1, m, 1) and pivmin is
    (m, 1). With flat (every diagonal entry has the bits of the first)
    d_i - x is formed once, so each pivot is one subtraction from it. The
    scratch arrays are allocated once here, and count returns the same
    buffer on every call.

    Each pivot costs as few numpy calls as its answer needs. The clamp is
    all but never needed, so a pivot first compares its smallest size (NaN
    left out, as a NaN pivot is never clamped) with the largest pivmin, one
    Python comparison, and runs the per-entry test and the clamp only if it
    is below. The count is kept in the smallest unsigned type that holds n,
    so that for n < 256 adding a pivot's flags, read as uint8, is an add
    without a cast.
    """
    neg_pivmin = -pivmin
    piv_max = float(pivmin.max(initial=0.0))
    q = np.empty(shape)
    t = np.empty(shape)
    dx = np.empty(shape) if flat else None
    flag = np.empty(shape, dtype=bool)
    is_neg = flag.view(np.uint8)
    cnt = np.empty(shape, dtype=np.min_scalar_type(len(diag)))
    e2_rows = list(e2T)
    subtract, divide, abs_, less, less_equal, add = (
        np.subtract, np.divide, np.abs, np.less, np.less_equal, np.add)
    smallest, inf = np.fmin.reduce, math.inf

    def count(x):
        if flat:
            subtract(diag[0], x, out=dx)
            np.copyto(q, dx)
        else:
            subtract(diag[0], x, out=q)
        cnt.fill(0)
        for i in range(len(diag)):
            if i:
                divide(e2_rows[i - 1], q, out=t)
                if flat:
                    subtract(dx, t, out=q)
                else:
                    subtract(diag[i], x, out=q)
                    subtract(q, t, out=q)
            abs_(q, out=t)
            if smallest(t, None, None, None, False, inf) < piv_max:
                less(t, pivmin, out=flag)
                np.copyto(q, neg_pivmin, where=flag)
            less_equal(q, 0.0, out=flag)
            add(cnt, is_neg, out=cnt)
        return cnt

    return count


def _newton_sweep(diag, e2T, x, flat):
    """One Newton step x - det/det' on det(T - x I), for each entry of x.

    x has shape (m, k), one row per off-diagonal row, and e2T, flat are as
    for :func:`_sturm_counter`. det'/det is the sum of u_i = q_i'/q_i over
    the LDL^T pivots q_i = d_i - x - t_i, with t_i = e_{i-1}^2 / q_{i-1} and
    q_i' = t_i u_{i-1} - 1. A zero pivot gives a non-finite step; the caller
    then keeps the guess itself, for its Sturm counts to certify or reject.
    """
    with np.errstate(all="ignore"):
        dx = diag[0] - x
        q = dx
        u = -1.0 / q
        s = u.copy()
        t = np.empty_like(x)
        p = np.empty_like(x)
        for i in range(e2T.shape[0]):
            np.divide(e2T[i], q, out=t)
            np.multiply(t, u, out=u)
            u -= 1.0
            if flat:
                q = np.subtract(dx, t, out=p)
            else:
                q = np.subtract(diag[i + 1], x, out=p)
                q -= t
            u /= q
            s += u
        return x - 1.0 / s


def _bisect(diag, e2T, pivmin, lo, hi, need, tol, flat):
    """Bisect each bracket [lo, hi] of shape (m, k) onto its need-th eigenvalue.

    Returns the midpoints. Each pass counts eigenvalues at the midpoint of
    every bracket at once and keeps the half that holds the eigenvalue,
    until the widest bracket of the batch is at most 2*tol wide; a bracket
    still wider after _MAX_BISECT halvings raises NonConvergence.
    """
    count = _sturm_counter(diag, e2T, pivmin, lo.shape, flat)
    spent = 0
    while spent < _MAX_BISECT and (hi - lo).max(initial=0.0) > 2.0 * tol:
        x = (lo + hi) * 0.5
        take_hi = count(x) >= need
        hi = np.where(take_hi, x, hi)
        lo = np.where(take_hi, lo, x)
        spent += 1
    if not (hi - lo).max(initial=0.0) <= 2.0 * tol:  # NaN fails too
        raise NonConvergence(
            "bisection bracket failed to shrink; Gershgorin bounds are broken")
    return 0.5 * (lo + hi)


def sturm_batch(diag, offdiags, tol, *, guess=None):
    """Sturm-sequence eigenvalues for a batch of symmetric tridiagonals.

    diag: (n,) shared diagonal; offdiags: (m, n-1) batch of off-diagonals.
    Returns eigs (m, n), ascending per row. A bracket that fails to shrink
    below 2*tol within _MAX_BISECT bisection steps raises NonConvergence.

    A zero diagonal gives a (+/-)-symmetric spectrum: only the floor(n/2)
    nonnegative eigenvalues are solved for, on [0, Gershgorin bound], and
    mirrored; odd n gets an exact 0 in the middle. Otherwise all n
    eigenvalues are solved for on the Gershgorin interval. A diagonal whose
    entries all have the bits of the first (every zero diagonal the package
    solves; not one that mixes 0.0 and -0.0) has d_i - x formed once per
    sweep rather than once per pivot: the same operands, the same bits.

    Without a guess each eigenvalue is bisected (Barth, Martin & Wilkinson,
    Numer. Math. 9, 1967): one pass of Sturm counts halves every bracket of
    the batch. The Gershgorin brackets are built for the bisected rows only,
    padded by 1e-12 times their bound for rounding: no absolute term, so a
    cold solve of 2^k T to 2^k tol is 2^k times that of T, to the bit.

    guess, an (n,) or (m, n) array of approximate eigenvalues (ascending),
    starts one Newton step x = g - det/det' on det(T - x I) from each one; a
    non-finite step (a zero pivot) leaves x = g. Two Sturm counts, at
    x - tol and x + tol, certify x: the entry is kept if they hold its
    eigenvalue, however far the step moved, since they prove it within tol
    and bisection is no more accurate. A row with any entry not certified is
    bisected as without a guess, so every value is within tol of its
    eigenvalue. The rows are solved independently: a row's values do not
    depend on the other rows of the batch, unless it is bisected.
    """
    m, nm1 = offdiags.shape
    n = nm1 + 1
    e2 = offdiags * offdiags
    e2T = np.ascontiguousarray(e2.T)[:, :, None]  # (n-1, m, 1)
    pivmin = 1.0e-292 * np.maximum(1.0, e2.max(axis=1, initial=0.0))[:, None]
    bits = diag.view(np.int64)
    flat = bool((bits == bits[0]).all())
    zero_diag = not np.any(diag)
    k = n // 2 if zero_diag else n
    need = np.arange(n - k + 1, n + 1)

    cold = np.ones(m, dtype=bool)
    if guess is not None and k:
        g = np.empty((m, k))
        g[...] = guess[..., need - 1]
        x = _newton_sweep(diag, e2T, g, flat)
        mid = np.where(np.isfinite(x), x, g)
        ends = np.concatenate([mid - tol, mid + tol], axis=1)
        cnt = _sturm_counter(diag, e2T, pivmin, ends.shape, flat)(ends)
        holds = (cnt[:, :k] < need) & (cnt[:, k:] >= need)
        cold = ~holds.all(axis=1)
    else:
        mid = np.empty((m, k))

    if cold.any():
        off = np.abs(offdiags[cold])
        rad = np.zeros((len(off), n))
        rad[:, :-1] += off
        rad[:, 1:] += off
        lo0 = (diag[None, :] - rad).min(axis=1)
        hi0 = (diag[None, :] + rad).max(axis=1)
        bound = np.maximum(np.abs(lo0), np.abs(hi0))
        pad = 1.0e-12 * bound
        # on a zero diagonal the bisection's first midpoint would be exactly
        # 0, which puts every positive eigenvalue in [0, hi0]
        lo0 = np.zeros_like(lo0) if zero_diag else lo0 - pad
        hi0 += pad
        lo = np.repeat(lo0[:, None], k, axis=1)
        hi = np.repeat(hi0[:, None], k, axis=1)
        mid[cold] = _bisect(diag, e2T[:, cold], pivmin[cold], lo, hi, need, tol, flat)
    if not zero_diag:
        return mid
    eigs = np.zeros((m, n))
    eigs[:, n - k:] = mid
    eigs[:, :k] = -mid[:, ::-1]
    return eigs
