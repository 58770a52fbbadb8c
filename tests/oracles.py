"""Independent test oracles: closed-form eigenvalues and textbook steps.

Characteristic polynomials of degree up to 4 are solved with the quadratic
formula, the trigonometric cubic, and Ferrari's quartic (real-root
specialization, valid for symmetric matrices), followed by a couple of
Newton polish steps on the exact polynomial. None of this touches the
package's Sturm eigensolver.

One Dormand-Prince 5(4) step (Dormand & Prince 1980) and one classic RK4
step are written out stage by stage with scalar coefficients, as textbooks
print them, independent of the package's stage buffer and tableau matrices.
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


# Dormand-Prince 5(4) tableau
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0, 22.0 / 525.0,
    -1.0 / 40.0)


def dopri_step(rhs, y, h):
    """One Dormand-Prince 5(4) step of dy/dt = rhs(y): (y_new, error estimate)."""
    k1 = rhs(y)
    k2 = rhs(y + h * (_A21 * k1))
    k3 = rhs(y + h * (_A31 * k1 + _A32 * k2))
    k4 = rhs(y + h * (_A41 * k1 + _A42 * k2 + _A43 * k3))
    k5 = rhs(y + h * (_A51 * k1 + _A52 * k2 + _A53 * k3 + _A54 * k4))
    k6 = rhs(y + h * (_A61 * k1 + _A62 * k2 + _A63 * k3 + _A64 * k4 + _A65 * k5))
    y_new = y + h * (_B1 * k1 + _B3 * k3 + _B4 * k4 + _B5 * k5 + _B6 * k6)
    k7 = rhs(y_new)
    err = h * (_E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6 + _E7 * k7)
    return y_new, err
