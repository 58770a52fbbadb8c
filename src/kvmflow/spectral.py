"""Tridiagonal eigensolver, spectrum classification, limit prediction, equilibria.

The eigensolver counts eigenvalues with Sturm sequences. A value starts from
a guess, takes one Newton step and is kept only if two Sturm counts, at -tol
and +tol from it, hold its eigenvalue: a certificate within tol. A single
matrix takes its guesses from LAPACK (numpy.linalg.eigvalsh), the drift rows
of a trajectory from the t=0 spectrum. A row that is not certified, or has
no guess, is bisected with Gershgorin bracketing. For a zero diagonal the
solver finds the nonnegative half of the (+/-)-symmetric spectrum and
mirrors it. It never touches the flow, so it serves as an independent oracle
for everything the integrator produces.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import DegenerateSpectrum, EquilibriumInput, ValidationFailure
from .jacobi import (
    as_diagonal,
    as_offdiag,
    limit_slots,
    scaled_norm,
    validate_initial_state,
)

__all__ = [
    "Spectrum",
    "EquilibriumSet",
    "eigenvalues_tridiagonal",
    "spectrum_zero_diag",
    "make_spectrum",
    "pairing_defect",
    "predict_limit",
    "limit_slots",
    "enumerate_equilibria",
    "EIG_TOL",
    "PAIR_TOL",
    "GAP_TOL",
]

# Every spectral tolerance is one of these coefficients times the matrix's
# Frobenius norm ||T||_F = sqrt(sum of lambda^2), which reads the same off the
# matrix and off its spectrum: homogeneous of degree 1, scale-free.
EIG_TOL = 1e-12  # the eigensolver's certificate
PAIR_TOL = 1e-9  # the (+/-)-pairing decision
GAP_TOL = 1e-8  # distinctness: the smallest accepted eigenvalue gap

# enumerate_equilibria refuses sets larger than this (signed n <= 12 fits)
_MAX_EQUILIBRIUM_POINTS = 100_000

# eigenvalues_tridiagonal seeds its Sturm solve with LAPACK up to this n. The
# seed's dense n x n matrix grows peak memory by about 16 n^2 bytes (16 MB at
# this bound), while the time it saves over cold bisection shrinks with n
# (in process, zero diagonal, seeded vs cold: 102-149 vs 280-501 ms at
# n = 1024, 266-362 vs 436-818 ms at 1536, 629-782 vs 611-1144 ms at 2048)
_SEED_MAX_N = 1024


@dataclass(frozen=True)
class Spectrum:
    """Sorted eigenvalues with (+/-)-pairing metadata."""

    values: np.ndarray  # ascending
    gap_min: float  # smallest consecutive gap (inf for n <= 1)
    paired: bool  # values form {+/- lambda} pairs (plus one 0 for odd n)
    norm: float  # ||T||_F = sqrt(sum of values^2)

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def pair_tol(self) -> float:
        """Tolerance of the pairing decision."""
        return PAIR_TOL * self.norm

    @property
    def gap_tol(self) -> float:
        """Every gap of a distinct spectrum exceeds this."""
        return GAP_TOL * self.norm

    @property
    def positive_magnitudes(self) -> np.ndarray:
        """The floor(n/2) positive magnitudes, ascending. Meaningful when paired."""
        return self.values[self.values.size - self.values.size // 2 :]


@dataclass(frozen=True)
class EquilibriumSet:
    """Flow equilibria sharing a given spectrum."""

    points: list  # list of off-diagonal vectors
    count_formula: int  # permutation count (even: (n/2)!, odd: ((n+1)/2)((n-1)/2)!)
    count_with_signs: int  # full count including sign patterns


def pairing_defect(values: np.ndarray) -> float:
    """Deviation of a sorted spectrum from exact {+/- lambda} (+0) symmetry."""
    v = np.asarray(values, dtype=np.float64)
    n = v.size
    if n == 0:
        return 0.0
    half = n // 2
    defect = float(np.abs(v[:half] + v[::-1][:half]).max()) if half else 0.0
    if n % 2 == 1:
        defect = max(defect, abs(float(v[half])))
    return defect


def batch_eigenvalues_zero_diag(states: np.ndarray, tol: float, *,
                                guess=None) -> np.ndarray:
    """Eigenvalues for a batch of off-diagonal rows (m, n-1) -> (m, n).

    guess, approximate eigenvalues shared by all rows (such as the t=0
    spectrum of a trajectory), starts one certified Newton step per
    eigenvalue in place of bisection; see :func:`kernels.sturm_batch`.
    Rows whose entries square out of range, or whose tol or Gershgorin
    bound is not finite, raise ValidationFailure.
    """
    states = np.ascontiguousarray(np.atleast_2d(states), dtype=np.float64)
    # the kernel squares the off-diagonal entries and adds the two ends of a
    # Gershgorin bracket
    emax = float(np.abs(states).max(initial=0.0))
    bound = 4.0 * (emax + tol)
    if not (math.isfinite(tol) and math.isfinite(emax * emax) and math.isfinite(bound)):
        raise ValidationFailure(
            f"matrix is out of range: largest off-diagonal entry {emax:.3e}, "
            f"tolerance {tol:.3e}, Gershgorin bound {bound:.3e}"
        )
    return kernels.sturm_batch(np.zeros(states.shape[1] + 1), states, tol, guess=guess)


def _lapack_seed(d: np.ndarray, e: np.ndarray):
    """LAPACK's eigenvalues of the dense tridiagonal (d, e), or None above
    _SEED_MAX_N or where LAPACK fails to converge."""
    n = d.size
    if n > _SEED_MAX_N:
        return None
    t = np.zeros((n, n))
    flat = t.reshape(-1)
    flat[:: n + 1] = d
    flat[n :: n + 1] = e  # eigvalsh reads the lower triangle
    try:
        return np.linalg.eigvalsh(t)
    except np.linalg.LinAlgError:
        return None


def eigenvalues_tridiagonal(diag, offdiag) -> Spectrum:
    """All eigenvalues of the symmetric tridiagonal matrix (diag, offdiag).

    Solved on the matrix divided by its largest entry, whose Frobenius norm
    is then at least 1; the values are scaled back. Up to n = _SEED_MAX_N
    each value is LAPACK's, refined by one Newton step and certified by two
    Sturm counts to be within ``tol = EIG_TOL * ||T||_F`` of exact (1e-12 for
    the zero matrix, which has norm 0); a matrix with a value not certified,
    a LAPACK failure, or a larger n is solved by Sturm-sequence bisection to
    the same tol. A non-finite entry, or a matrix whose squared Frobenius
    norm overflows, raises ValidationFailure.
    """
    d = as_diagonal(diag)
    e = as_offdiag(offdiag)
    if e.size != max(d.size - 1, 0):
        raise ValidationFailure(
            f"offdiag length {e.size} does not match diag length {d.size}"
        )
    if d.size == 0:
        raise ValidationFailure("matrix dimension must be at least 1")
    unit = float(np.abs(np.concatenate([d, e])).max()) or 1.0
    d, e = d / unit, e / unit
    scale = math.sqrt(float(np.dot(d, d) + 2.0 * np.dot(e, e)))
    norm = unit * scale
    if not math.isfinite(norm * norm):
        raise ValidationFailure(
            f"matrix is out of range: Frobenius norm {norm:.3e} squares to "
            "more than the largest float"
        )
    # every entry is at most 1 and tol is finite: in sturm_batch's range
    values = kernels.sturm_batch(d, e[None, :], EIG_TOL * max(scale, 1.0),
                                 guess=_lapack_seed(d, e))[0] * unit
    return make_spectrum(values)


def make_spectrum(values) -> Spectrum:
    """Build a Spectrum from raw eigenvalues, measuring gap_min, ||T||_F and
    pairing."""
    v = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    gap_min = float(np.diff(v).min()) if v.size > 1 else math.inf
    norm = scaled_norm(v)
    return Spectrum(values=v, gap_min=gap_min,
                    paired=pairing_defect(v) <= PAIR_TOL * norm, norm=norm)


def spectrum_zero_diag(a) -> Spectrum:
    """Spectrum of the zero-diagonal Jacobi matrix encoded by ``a``.

    The eigensolver solves for the nonnegative half (seeded and certified,
    or bisected; see eigenvalues_tridiagonal) and mirrors it, so the values
    are (+/-)-paired exactly, with an exact 0 for odd n.
    DegenerateSpectrum flags an eigenvalue gap that does not exceed
    GAP_TOL * ||T||_F: the input is not a Jacobi matrix, which requires
    distinct eigenvalues.
    """
    a = as_offdiag(a)
    return _require_distinct(eigenvalues_tridiagonal(np.zeros(a.size + 1), a))


def _require_distinct(spec: Spectrum) -> Spectrum:
    """The limit theorem's second hypothesis: a (+/-)-paired spectrum whose
    consecutive eigenvalues are more than spec.gap_tol = GAP_TOL * ||T||_F
    apart.

    The one distinctness check. On a paired spectrum the gaps are those of
    the magnitudes and 2 lambda_1 (even n) or lambda_1 (odd n), so it also
    keeps the smallest magnitude off zero. The bound is strict, so an
    all-zero spectrum (n >= 2), whose gap_tol is 0, is not distinct.
    """
    if not spec.paired:
        raise ValidationFailure("spectrum is not (+/-)-paired")
    if not spec.gap_min > spec.gap_tol:
        raise DegenerateSpectrum(
            f"smallest eigenvalue gap {spec.gap_min:.3e} does not exceed "
            f"gap_tol {spec.gap_tol:.3e}; eigenvalues must be pairwise distinct"
        )
    return spec


def predict_limit(a0, spec: Spectrum) -> np.ndarray:
    """Asymptotic state of the flow from a0, built from spectrum magnitudes.

    For even n the odd-indexed slots (1-based 1, 3, ...) carry the magnitudes
    ascending, each with the sign of the matching entry of a0; the remaining
    slots are zero. For odd n the pattern shifts right by one and the leading
    slot is zero. Requires a non-equilibrium a0 with nonzero entries
    (jacobi.validate_initial_state) and distinct eigenvalues, checked as
    spectrum_zero_diag checks them; the placement after these checks is
    :func:`_limit_state`.
    """
    a0 = as_offdiag(a0)
    n = a0.size + 1
    if spec.n != n:
        raise ValidationFailure(f"spectrum has {spec.n} values, state implies {n}")
    nonzero = a0 != 0.0
    # no two neighbours nonzero: map_K(a0) = 0, read from the pattern because
    # the products under- or overflow at extreme scales
    if not np.any(nonzero[:-1] & nonzero[1:]):
        raise EquilibriumInput("input is already an equilibrium; it does not move")
    validate_initial_state(a0)
    _require_distinct(spec)
    return _limit_state(a0, spec)


def _limit_state(a0: np.ndarray, spec: Spectrum) -> np.ndarray:
    """predict_limit without its checks, for a caller that has made them:
    a0 an off-diagonal array and spec its distinct spectrum, as
    flow.integrate(validate=True) leaves them."""
    n = a0.size + 1
    out = np.zeros(n - 1)
    live = limit_slots(n)
    out[live] = np.sign(a0[live]) * spec.positive_magnitudes
    return out


def enumerate_equilibria(spec: Spectrum, include_signs: bool = True) -> EquilibriumSet:
    """All flow equilibria with the given paired spectrum.

    Equilibria have no two consecutive nonzero entries. For even n that means
    magnitudes permuted over the odd-indexed slots; for odd n there is
    additionally a free placement of the single 1x1 zero block among the
    (n+1)/2 block positions. count_formula counts permutations (and zero-block
    placements); count_with_signs also counts the 2^(n//2) sign patterns.
    The spectrum must be distinct, as spectrum_zero_diag checks it. A set of
    more than 100 000 points is refused before any is built.
    """
    _require_distinct(spec)
    n = spec.n
    mags = spec.positive_magnitudes
    m = mags.size
    # block positions of the 1x1 zero block; even n has none, and its slots
    # are those of an odd-n zero block placed after the last 2x2 block
    placements = range(0 if n % 2 else m, m + 1)
    count_formula = math.factorial(m) * len(placements)
    size = count_formula * 2**m if include_signs else count_formula
    if size > _MAX_EQUILIBRIUM_POINTS:
        raise ValidationFailure(
            f"{size} equilibria for n={n} exceed the limit of "
            f"{_MAX_EQUILIBRIUM_POINTS}"
        )

    signs = list(itertools.product((1.0, -1.0), repeat=m)) if include_signs else [(1.0,) * m]
    points = []
    for zero_pos in placements:
        # 2x2 block j sits at slot 2j before the zero block, 2j + 1 after it
        slots = 2 * np.arange(m) + (np.arange(m) >= zero_pos)
        for perm in itertools.permutations(mags):
            for sign in signs:
                a = np.zeros(n - 1)
                a[slots] = np.multiply(perm, sign)
                points.append(a)

    return EquilibriumSet(
        points=points,
        count_formula=count_formula,
        count_with_signs=count_formula * 2**m,
    )
