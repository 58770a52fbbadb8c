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
from .jacobi import as_diagonal, as_offdiag, scaled_norm, validate_initial_state

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
    "default_eig_tol",
    "default_pair_tol",
    "default_gap_tol",
]

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
    pair_tol: float  # tolerance used for the pairing decision

    @property
    def n(self) -> int:
        return self.values.size

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


# The default tolerances below are set for a matrix (or spectrum) divided by
# its largest entry magnitude, whose Frobenius norm (or largest magnitude) is
# `scale`; callers multiply them back by that entry. Every tolerance is then
# homogeneous of degree 1 in the input: scale-free.


def default_eig_tol(scale: float) -> float:
    return 1e-12 * (1.0 + scale)


def default_pair_tol(scale: float) -> float:
    return 1e-9 * (1.0 + scale)


def default_gap_tol(scale: float) -> float:
    return 1e-8 * (1.0 + scale)


def _unit(x) -> float:
    """Largest entry magnitude of x (1 for an all-zero x): the unit in which
    the default tolerances are set."""
    m = float(np.abs(x).max(initial=0.0))
    return m if m > 0.0 else 1.0


def _spectrum_tol(default_tol, values) -> float:
    """default_tol for eigenvalues, set on them divided by the largest."""
    unit = _unit(values)
    return unit * default_tol(float(np.abs(values).max(initial=0.0)) / unit)


def _zero_diag_gap_tol(a: np.ndarray) -> float:
    """Smallest eigenvalue gap (and magnitude) accepted for the matrix of a."""
    unit = _unit(a)
    return unit * default_gap_tol(math.sqrt(2.0) * scaled_norm(a / unit))


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


def _sturm_eigenvalues(diag: np.ndarray, offdiags: np.ndarray, tol: float,
                       guess=None) -> np.ndarray:
    """kernels.sturm_batch on (m, n-1) rows, after a range check of its inputs."""
    # the kernel squares the off-diagonal entries and adds the two ends of a
    # Gershgorin bracket
    emax = float(np.abs(offdiags).max(initial=0.0))
    bound = 2.0 * (float(np.abs(diag).max()) + 2.0 * emax + 2.0 * tol)
    if not (math.isfinite(tol) and math.isfinite(emax * emax) and math.isfinite(bound)):
        raise ValidationFailure(
            f"matrix is out of range: largest off-diagonal entry {emax:.3e}, "
            f"tolerance {tol:.3e}, Gershgorin bound {bound:.3e}"
        )
    return kernels.sturm_batch(diag, offdiags, tol, guess=guess)


def batch_eigenvalues_zero_diag(states: np.ndarray, tol: float, *,
                                guess=None) -> np.ndarray:
    """Eigenvalues for a batch of off-diagonal rows (m, n-1) -> (m, n).

    guess, approximate eigenvalues shared by all rows (such as the t=0
    spectrum of a trajectory), starts one certified Newton step per
    eigenvalue in place of bisection; see :func:`kernels.sturm_batch`.
    """
    states = np.ascontiguousarray(np.atleast_2d(states), dtype=np.float64)
    return _sturm_eigenvalues(np.zeros(states.shape[1] + 1), states, tol, guess)


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

    Solved on the matrix divided by its largest entry m, so the tolerance is
    scale-free; the values are scaled back. Up to n = _SEED_MAX_N each value
    is LAPACK's, refined by one Newton step and certified by two Sturm counts
    to be within ``tol = 1e-12 * (m + ||T||_F)`` of exact; a matrix with a
    value not certified, a LAPACK failure, or a larger n is solved by
    Sturm-sequence bisection to the same tol. A non-finite entry, or a matrix
    whose squared Frobenius norm overflows, raises ValidationFailure.
    """
    d = as_diagonal(diag)
    e = as_offdiag(offdiag)
    if e.size != max(d.size - 1, 0):
        raise ValidationFailure(
            f"offdiag length {e.size} does not match diag length {d.size}"
        )
    if d.size == 0:
        raise ValidationFailure("matrix dimension must be at least 1")
    unit = _unit(np.concatenate([d, e]))
    d, e = d / unit, e / unit
    scale = math.sqrt(float(np.dot(d, d) + 2.0 * np.dot(e, e)))
    norm = unit * scale
    if not math.isfinite(norm * norm):
        raise ValidationFailure(
            f"matrix is out of range: Frobenius norm {norm:.3e} squares to "
            "more than the largest float"
        )
    values = _sturm_eigenvalues(d, e[None, :], default_eig_tol(scale),
                                _lapack_seed(d, e))[0] * unit
    return make_spectrum(values, pair_tol=unit * default_pair_tol(scale))


def make_spectrum(values, pair_tol: float | None = None) -> Spectrum:
    """Build a Spectrum from raw eigenvalues, measuring gap_min and pairing."""
    v = np.sort(np.asarray(values, dtype=np.float64).reshape(-1))
    if pair_tol is None:
        pair_tol = _spectrum_tol(default_pair_tol, v)
    gap_min = float(np.diff(v).min()) if v.size > 1 else math.inf
    paired = pairing_defect(v) <= pair_tol
    return Spectrum(values=v, gap_min=gap_min, paired=paired, pair_tol=pair_tol)


def spectrum_zero_diag(a) -> Spectrum:
    """Spectrum of the zero-diagonal Jacobi matrix encoded by ``a``.

    The eigensolver solves for the nonnegative half (seeded and certified,
    or bisected; see eigenvalues_tridiagonal) and mirrors it, so the values
    are (+/-)-paired exactly, with an exact 0 for odd n.
    DegenerateSpectrum flags eigenvalue gaps below 1e-8 * (m + ||T||_F), m
    the largest |a_i|: the input is not a Jacobi matrix, which requires
    distinct eigenvalues.
    """
    a = as_offdiag(a)
    spec = eigenvalues_tridiagonal(np.zeros(a.size + 1), a)
    return _require_distinct(spec, _zero_diag_gap_tol(a))


def _require_distinct(spec: Spectrum, gap_tol: float) -> Spectrum:
    """The limit theorem's second hypothesis: a (+/-)-paired spectrum whose
    consecutive eigenvalues are at least gap_tol apart.

    The one distinctness check. On a paired spectrum the gaps are those of
    the magnitudes and 2 lambda_1 (even n) or lambda_1 (odd n), so it also
    keeps the smallest magnitude off zero.
    """
    if not spec.paired:
        raise ValidationFailure("spectrum is not (+/-)-paired")
    if not spec.gap_min >= gap_tol:
        raise DegenerateSpectrum(
            f"smallest eigenvalue gap {spec.gap_min:.3e} is below "
            f"gap_tol {gap_tol:.3e}; eigenvalues must be pairwise distinct"
        )
    return spec


def limit_slots(n: int) -> np.ndarray:
    """Mask of the off-diagonal slots that carry a magnitude in the limit.

    For even n these are the 0-based slots 0, 2, ...; for odd n the leading
    1x1 zero block shifts them to 1, 3, .... The other slots tend to zero.
    """
    return np.arange(n - 1) % 2 == n % 2


def predict_limit(a0, spec: Spectrum) -> np.ndarray:
    """Asymptotic state of the flow from a0, built from spectrum magnitudes.

    For even n the odd-indexed slots (1-based 1, 3, ...) carry the magnitudes
    ascending, each with the sign of the matching entry of a0; the remaining
    slots are zero. For odd n the pattern shifts right by one and the leading
    slot is zero. Requires a non-equilibrium a0 with nonzero entries
    (jacobi.validate_initial_state) and distinct eigenvalues, checked with
    the gap tolerance of spectrum_zero_diag.
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
    _require_distinct(spec, _zero_diag_gap_tol(a0))

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
    The spectrum must be distinct, with the gap tolerance set on its values.
    A set of more than 100 000 points is refused before any is built.
    """
    _require_distinct(spec, _spectrum_tol(default_gap_tol, spec.values))
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
