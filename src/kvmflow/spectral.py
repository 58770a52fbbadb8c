"""Tridiagonal eigensolver, spectrum classification, limit prediction, equilibria.

The eigensolver is Sturm-sequence bisection with Gershgorin bracketing. For a
zero diagonal it bisects the nonnegative half of the (+/-)-symmetric spectrum
and mirrors it; a batch of rows near a known spectrum (the drift rows of a
trajectory) can start from brackets around it. It never touches the flow, so
it serves as an independent oracle for everything the integrator produces.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import (
    DegenerateMagnitudes,
    DegenerateSpectrum,
    DimensionMismatch,
    EquilibriumInput,
    NonConvergence,
    PairingViolation,
    ValidationFailure,
    ZeroEntry,
)
from .jacobi import as_offdiag, scaled_norm

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
    "quadrature_nodes",
    "default_eig_tol",
    "default_pair_tol",
    "default_gap_tol",
]

# enumerate_equilibria refuses sets larger than this (signed n <= 12 fits)
_MAX_EQUILIBRIUM_POINTS = 100_000


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
    eigs, ok = kernels.sturm_batch(diag, offdiags, tol, guess=guess)
    if not ok:
        raise NonConvergence(
            "bisection bracket failed to shrink; Gershgorin bounds are broken"
        )
    return eigs


def batch_eigenvalues_zero_diag(states: np.ndarray, tol: float, *,
                                guess=None) -> np.ndarray:
    """Eigenvalues for a batch of off-diagonal rows (m, n-1) -> (m, n).

    guess, approximate eigenvalues shared by all rows (such as the t=0
    spectrum of a trajectory), warm-starts the bisection; see
    :func:`kernels.sturm_batch`.
    """
    states = np.ascontiguousarray(np.atleast_2d(states), dtype=np.float64)
    return _sturm_eigenvalues(np.zeros(states.shape[1] + 1), states, tol, guess)


def eigenvalues_tridiagonal(diag, offdiag, tol: float | None = None) -> Spectrum:
    """All eigenvalues of the symmetric tridiagonal matrix (diag, offdiag).

    Sturm-sequence bisection on the matrix divided by its largest entry, so
    the brackets and tolerances are scale-free; the values are scaled back.
    Each eigenvalue is within ``tol`` of exact (default ``1e-12 * (m +
    ||T||_F)``, m the largest entry). A matrix whose squared Frobenius norm
    overflows raises ValidationFailure.
    """
    d = np.asarray(diag, dtype=np.float64).reshape(-1)
    e = np.asarray(offdiag, dtype=np.float64).reshape(-1)
    if e.size != max(d.size - 1, 0):
        raise DimensionMismatch(
            f"offdiag length {e.size} does not match diag length {d.size}"
        )
    if d.size == 0:
        raise DimensionMismatch("matrix dimension must be at least 1")
    unit = _unit(np.concatenate([d, e]))
    if math.isfinite(unit):
        d, e = d / unit, e / unit
        scale = math.sqrt(float(np.dot(d, d) + 2.0 * np.dot(e, e)))
    else:
        scale = math.inf
    norm = unit * scale
    if not math.isfinite(norm * norm):
        raise ValidationFailure(
            f"matrix is out of range: Frobenius norm {norm:.3e} squares to "
            "more than the largest float"
        )
    tol = default_eig_tol(scale) if tol is None else tol / unit
    values = _sturm_eigenvalues(d, e[None, :], tol)[0] * unit
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

    The eigensolver bisects the nonnegative half and mirrors it, so the
    values are (+/-)-paired exactly, with an exact 0 for odd n.
    DegenerateSpectrum flags eigenvalue gaps below 1e-8 * (m + ||T||_F), m
    the largest |a_i|: the input is not a Jacobi matrix, which requires
    distinct eigenvalues.
    """
    a = as_offdiag(a)
    spec = eigenvalues_tridiagonal(np.zeros(a.size + 1), a)
    gap_tol = _zero_diag_gap_tol(a)
    if not spec.gap_min >= gap_tol:
        raise DegenerateSpectrum(
            f"smallest eigenvalue gap {spec.gap_min:.3e} is below "
            f"gap_tol {gap_tol:.3e}; eigenvalues must be pairwise distinct"
        )
    return spec


def _distinct_magnitudes(spec: Spectrum, gap_tol: float) -> np.ndarray:
    mags = spec.positive_magnitudes
    if mags.size and mags[0] <= gap_tol:
        raise DegenerateMagnitudes(
            f"smallest magnitude {mags[0]:.3e} is not separated from zero"
        )
    if mags.size > 1 and np.diff(mags).min() <= gap_tol:
        raise DegenerateMagnitudes(
            f"magnitude gap {np.diff(mags).min():.3e} is below gap_tol {gap_tol:.3e}"
        )
    return mags


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
    slot is zero. Requires a nonzero, non-equilibrium a0 and strictly
    separated magnitudes.
    """
    a0 = as_offdiag(a0)
    n = a0.size + 1
    if spec.n != n:
        raise DimensionMismatch(f"spectrum has {spec.n} values, state implies {n}")
    nonzero = a0 != 0.0
    # no two neighbours nonzero: map_K(a0) = 0, read from the pattern because
    # the products under- or overflow at extreme scales
    if not np.any(nonzero[:-1] & nonzero[1:]):
        raise EquilibriumInput("input is already an equilibrium; it does not move")
    if a0.size and np.any(a0 == 0.0):
        idx = int(np.flatnonzero(a0 == 0.0)[0]) + 1
        raise ZeroEntry(f"a_{idx} is zero; the limit sign sgn(a_{idx}) is undefined")
    if not spec.paired:
        raise PairingViolation("spectrum is not (+/-)-paired")
    mags = _distinct_magnitudes(spec, _zero_diag_gap_tol(a0))

    out = np.zeros(n - 1)
    live = limit_slots(n)
    out[live] = np.sign(a0[live]) * mags
    return out


def enumerate_equilibria(spec: Spectrum, include_signs: bool = True) -> EquilibriumSet:
    """All flow equilibria with the given paired spectrum.

    Equilibria have no two consecutive nonzero entries. For even n that means
    magnitudes permuted over the odd-indexed slots; for odd n there is
    additionally a free placement of the single 1x1 zero block among the
    (n+1)/2 block positions. count_formula counts permutations (and zero-block
    placements); count_with_signs also counts the 2^(n//2) sign patterns.
    A set of more than 100 000 points is refused before any is built.
    """
    if not spec.paired:
        raise PairingViolation("spectrum is not (+/-)-paired")
    mags = _distinct_magnitudes(spec, _spectrum_tol(default_gap_tol, spec.values))
    n = spec.n
    m = mags.size
    count_formula = math.factorial(m) * (1 if n % 2 == 0 else m + 1)
    size = count_formula * 2**m if include_signs else count_formula
    if size > _MAX_EQUILIBRIUM_POINTS:
        raise ValidationFailure(
            f"{size} equilibria for n={n} exceed the limit of "
            f"{_MAX_EQUILIBRIUM_POINTS}"
        )

    def build(blocks):
        a = np.zeros(n - 1)
        pos = 0
        for v in blocks:
            if v is None:
                pos += 1
            else:
                a[pos] = v
                pos += 2
        return a

    arrangements = []
    if n % 2 == 0:
        for perm in itertools.permutations(mags):
            arrangements.append(list(perm))
    else:
        for zero_pos in range(m + 1):
            for perm in itertools.permutations(mags):
                blocks = list(perm)
                blocks.insert(zero_pos, None)
                arrangements.append(blocks)

    points = []
    if include_signs:
        for blocks in arrangements:
            for signs in itertools.product((1.0, -1.0), repeat=m):
                it = iter(signs)
                signed = [v if v is None else v * next(it) for v in blocks]
                points.append(build(signed))
    else:
        points = [build(blocks) for blocks in arrangements]

    return EquilibriumSet(
        points=points,
        count_formula=count_formula,
        count_with_signs=count_formula * 2**m,
    )


def quadrature_nodes(a, method: str = "direct", tol: float = 1e-8,
                     cfg=None) -> np.ndarray:
    """Nodes of the n-point quadrature rule attached to recurrence coefficients a.

    The nodes are the eigenvalues of the zero-diagonal Jacobi matrix built
    from a. method="direct" computes them with the Sturm eigensolver;
    method="flow" integrates the sorting flow and reads them off the limit
    as {+/- |entries|} (plus 0 for odd n). The two agree within tol.
    """
    a = as_offdiag(a)
    n = a.size + 1
    if method == "direct":
        with np.errstate(over="ignore"):  # the eigensolver reports an overflow
            scale = float(np.sqrt(2.0 * np.sum(a * a)))
        eig_tol = min(tol / 8.0, 1e-10 * (1.0 + scale))
        return eigenvalues_tridiagonal(np.zeros(n), a, tol=eig_tol).values
    if method == "flow":
        from .flow import IntegratorConfig, integrate

        if cfg is None:
            cfg = IntegratorConfig(t_max=100.0)
        traj = integrate(a, cfg)
        if traj.status == "horizon_reached":
            raise NonConvergence(
                f"flow did not reach equilibrium by t_max={traj.config.t_max}; "
                "raise t_max"
            )
        mags = np.sort(np.abs(traj.final_state[limit_slots(n)]))
        parts = [-mags[::-1], mags]
        if n % 2 == 1:
            parts.insert(1, np.zeros(1))
        return np.concatenate(parts)
    raise ValueError(f"unknown method {method!r}; expected 'direct' or 'flow'")
