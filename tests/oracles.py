"""Independent test oracles: closed-form eigenvalues and textbook steps.

Characteristic polynomials of degree up to 4 are solved with the quadratic
formula, the trigonometric cubic, and Ferrari's quartic (real-root
specialization, valid for symmetric matrices), followed by a couple of
Newton polish steps on the exact polynomial. None of this touches the
package's Sturm eigensolver.

One DOP853 step (the Dormand-Prince 8(5,3) pair of Hairer, Norsett & Wanner)
is written out stage by stage with scalar coefficients, as textbooks print
it, independent of the package's stage buffer and stage matrix.

``bisect_sturm`` is plain Sturm bisection, one midpoint per bracket per
sweep, with the Gershgorin brackets, stopping rule and Sturm count the
package's eigensolver had before it took several midpoints per sweep; its
results are the bits the package must reproduce.
"""

import numpy as np


def char_poly_coeffs(diag, offdiag):
    """Ascending coefficients of det(T - x I) via the principal-minor recurrence."""
    d = np.asarray(diag, dtype=np.float64)
    e = np.asarray(offdiag, dtype=np.float64)
    prev = np.array([1.0])
    cur = np.array([d[0], -1.0])
    for i in range(1, d.size):
        new = np.zeros(cur.size + 1)
        new[: cur.size] += d[i] * cur
        new[1:] -= cur
        new[: prev.size] -= e[i - 1] ** 2 * prev
        prev, cur = cur, new
    return cur


def _eval(coeffs, x):
    return np.polynomial.polynomial.polyval(x, coeffs)


def _quadratic(b, c):
    """Real roots of x^2 + b x + c (clamps tiny negative discriminants)."""
    disc = b * b - 4.0 * c
    disc = max(disc, 0.0)
    s = np.sqrt(disc)
    q = -0.5 * (b + np.copysign(s, b)) if b != 0.0 else 0.5 * s
    if q == 0.0:
        return np.array([0.0, -b])
    return np.sort(np.array([q, c / q]))


def _cubic(a, b, c):
    """Real roots of x^3 + a x^2 + b x + c, all-real specialization."""
    p = b - a * a / 3.0
    q = 2.0 * a**3 / 27.0 - a * b / 3.0 + c
    shift = -a / 3.0
    if p >= -1e-300:
        return np.full(3, shift + np.cbrt(-q))
    m = 2.0 * np.sqrt(-p / 3.0)
    arg = np.clip(3.0 * q / (p * m), -1.0, 1.0)
    theta = np.arccos(arg)
    ks = np.array([0.0, 1.0, 2.0])
    return np.sort(shift + m * np.cos(theta / 3.0 - 2.0 * np.pi * ks / 3.0))


def _quartic(a, b, c, d):
    """Real roots of x^4 + a x^3 + b x^2 + c x + d, all-real specialization."""
    p = b - 3.0 * a * a / 8.0
    q = c - a * b / 2.0 + a**3 / 8.0
    r = d - a * c / 4.0 + a * a * b / 16.0 - 3.0 * a**4 / 256.0
    shift = -a / 4.0

    if abs(q) < 1e-12 * (1.0 + abs(p) + np.sqrt(abs(r))):
        z = _quadratic(p, r)
        z = np.maximum(z, 0.0)
        y = np.concatenate([-np.sqrt(z), np.sqrt(z)])
        return np.sort(shift + y)

    m = float(_cubic(p, p * p / 4.0 - r, -q * q / 8.0).max())
    m = max(m, 1e-300)
    s = np.sqrt(2.0 * m)
    t1 = p / 2.0 + m
    y = np.concatenate([
        _quadratic(-s, t1 + q / (2.0 * s)),
        _quadratic(s, t1 - q / (2.0 * s)),
    ])
    return np.sort(shift + y)


def closed_form_eigenvalues(diag, offdiag, polish=3):
    """Eigenvalues of a symmetric tridiagonal matrix, dimension <= 4."""
    d = np.asarray(diag, dtype=np.float64)
    n = d.size
    if n > 4:
        raise ValueError("closed forms implemented for n <= 4 only")
    coeffs = char_poly_coeffs(d, offdiag)
    monic = coeffs / coeffs[-1]
    if n == 1:
        roots = np.array([-monic[0]])
    elif n == 2:
        roots = _quadratic(monic[1], monic[0])
    elif n == 3:
        roots = _cubic(monic[2], monic[1], monic[0])
    else:
        roots = _quartic(monic[3], monic[2], monic[1], monic[0])

    deriv = coeffs[1:] * np.arange(1, coeffs.size)
    for _ in range(polish):
        fx = _eval(coeffs, roots)
        dfx = _eval(deriv, roots)
        step = np.where(dfx != 0.0, fx / np.where(dfx != 0.0, dfx, 1.0), 0.0)
        roots = roots - step
    return np.sort(roots)


# DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I, II.5): _Ai_j is
# a_ij, the weight of k_j in the argument of k_i
_A2_1 = 5.26001519587677318785587544488e-2
_A3_1, _A3_2 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
_A4_1, _A4_3 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
_A5_1, _A5_3, _A5_4 = (
    2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1)
_A6_1, _A6_4, _A6_5 = (
    3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1)
_A7_1, _A7_4, _A7_5, _A7_6 = (
    3.7109375e-2, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
    -1.7578125e-2)
_A8_1, _A8_4, _A8_5, _A8_6, _A8_7 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
_A9_1, _A9_4, _A9_5, _A9_6, _A9_7, _A9_8 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
_A10_1, _A10_4, _A10_5, _A10_6, _A10_7, _A10_8, _A10_9 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
_A11_1, _A11_4, _A11_5, _A11_6, _A11_7, _A11_8, _A11_9, _A11_10 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
_A12_1, _A12_4, _A12_5, _A12_6, _A12_7, _A12_8, _A12_9, _A12_10, _A12_11 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
# the eighth-order weights
_B1, _B6, _B7, _B8, _B9, _B10, _B11, _B12 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
# b - bhat of the embedded fifth-order solution
_E5_1, _E5_6, _E5_7, _E5_8, _E5_9, _E5_10, _E5_11, _E5_12 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
# the weights of the embedded third-order solution
_BHH1, _BHH9, _BHH12 = (
    0.244094488188976377952755905512, 0.733846688281611857341361741547,
    0.220588235294117647058823529412e-1)


def dop853_step(rhs, y, h):
    """One DOP853 step of dy/dt = rhs(y): (y_new, err5, err3).

    err5 and err3 are the differences of y_new from the embedded fifth- and
    third-order solutions.
    """
    k1 = rhs(y)
    k2 = rhs(y + h * (_A2_1 * k1))
    k3 = rhs(y + h * (_A3_1 * k1 + _A3_2 * k2))
    k4 = rhs(y + h * (_A4_1 * k1 + _A4_3 * k3))
    k5 = rhs(y + h * (_A5_1 * k1 + _A5_3 * k3 + _A5_4 * k4))
    k6 = rhs(y + h * (_A6_1 * k1 + _A6_4 * k4 + _A6_5 * k5))
    k7 = rhs(y + h * (_A7_1 * k1 + _A7_4 * k4 + _A7_5 * k5 + _A7_6 * k6))
    k8 = rhs(y + h * (_A8_1 * k1 + _A8_4 * k4 + _A8_5 * k5 + _A8_6 * k6 + _A8_7 * k7))
    k9 = rhs(y + h * (_A9_1 * k1 + _A9_4 * k4 + _A9_5 * k5 + _A9_6 * k6 + _A9_7 * k7
                      + _A9_8 * k8))
    k10 = rhs(y + h * (_A10_1 * k1 + _A10_4 * k4 + _A10_5 * k5 + _A10_6 * k6 + _A10_7 * k7
                       + _A10_8 * k8 + _A10_9 * k9))
    k11 = rhs(y + h * (_A11_1 * k1 + _A11_4 * k4 + _A11_5 * k5 + _A11_6 * k6 + _A11_7 * k7
                       + _A11_8 * k8 + _A11_9 * k9 + _A11_10 * k10))
    k12 = rhs(y + h * (_A12_1 * k1 + _A12_4 * k4 + _A12_5 * k5 + _A12_6 * k6 + _A12_7 * k7
                       + _A12_8 * k8 + _A12_9 * k9 + _A12_10 * k10 + _A12_11 * k11))
    step = (_B1 * k1 + _B6 * k6 + _B7 * k7 + _B8 * k8 + _B9 * k9 + _B10 * k10 + _B11 * k11
            + _B12 * k12)
    err5 = h * (_E5_1 * k1 + _E5_6 * k6 + _E5_7 * k7 + _E5_8 * k8 + _E5_9 * k9 + _E5_10 * k10
                + _E5_11 * k11 + _E5_12 * k12)
    err3 = h * (step - _BHH1 * k1 - _BHH9 * k9 - _BHH12 * k12)
    return y + h * step, err5, err3


def _sturm_count(diag, e2, pivmin, x):
    """Eigenvalues <= x per entry of x (m, k): negative LDL^T pivots, zeros
    and pivots below pivmin forced to -pivmin (LAPACK convention)."""
    def clamp(q):
        return np.where(np.abs(q) < pivmin, -pivmin, q)

    q = clamp(diag[0] - x)
    cnt = (q <= 0.0).astype(np.int64)
    for i in range(1, diag.size):
        q = clamp((diag[i] - x) - e2[:, i - 1:i] / q)
        cnt += q <= 0.0
    return cnt


def bisect_sturm(diag, offdiags, tol, perturb=None):
    """Sturm bisection for a batch of tridiagonals (m, n-1) with diagonal (n,).

    Returns (eigs (m, n), ok, halvings). Every bracket is halved until the
    widest is at most 2 * tol wide, at most 128 times (ok=0 if still wider).
    A zero diagonal bisects the floor(n/2) positive eigenvalues on
    [0, bound] and mirrors them. perturb(x, counts), if given, replaces
    every Sturm count.
    """
    m, nm1 = offdiags.shape
    n = nm1 + 1
    e2 = offdiags * offdiags
    pivmin = 1.0e-292 * np.maximum(1.0, e2.max(axis=1, initial=0.0))[:, None]
    rad = np.zeros((m, n))
    rad[:, :-1] += np.abs(offdiags)
    rad[:, 1:] += np.abs(offdiags)
    lo0 = (diag[None, :] - rad).min(axis=1)
    hi0 = (diag[None, :] + rad).max(axis=1)
    bound = np.maximum(np.abs(lo0), np.abs(hi0))
    pad = 2.0 * tol + 1.0e-12 * (1.0 + bound)
    zero_diag = not np.any(diag)
    k = n // 2 if zero_diag else n
    need = np.arange(n - k + 1, n + 1)
    lo = np.zeros((m, k)) if zero_diag else np.repeat((lo0 - pad)[:, None], k, axis=1)
    hi = np.repeat((hi0 + pad)[:, None], k, axis=1)

    halvings = 0
    while halvings < 128 and (hi - lo).max(initial=0.0) > 2.0 * tol:
        x = (lo + hi) * 0.5
        cnt = _sturm_count(diag, e2, pivmin, x)
        if perturb is not None:
            cnt = perturb(x, cnt)
        take_hi = cnt >= need
        hi = np.where(take_hi, x, hi)
        lo = np.where(take_hi, lo, x)
        halvings += 1
    ok = 1 if (hi - lo).max(initial=0.0) <= 2.0 * tol else 0
    mid = 0.5 * (lo + hi)
    if not zero_diag:
        return mid, ok, halvings
    eigs = np.zeros((m, n))
    eigs[:, n - k:] = mid
    eigs[:, :k] = -mid[:, ::-1]
    return eigs, ok, halvings
