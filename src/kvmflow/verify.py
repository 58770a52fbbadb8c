"""Executable checks for the flow's invariants and algebraic identities.

Each check name maps to one claim; reports carry measured values and
thresholds so CI logs stay auditable. A failing check is a report entry,
never an exception.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationFailure
from .flow import IntegratorConfig, integrate
from .jacobi import (
    commutator,
    embed,
    lyapunov_f,
    lyapunov_f_traceform,
    map_K,
    map_N,
    rhs_componentwise,
    rhs_matrix,
)
from .spectral import (
    EIG_TOL,
    Spectrum,
    _limit_state,
    batch_eigenvalues_zero_diag,
    make_spectrum,
    enumerate_equilibria,
    limit_slots,
)

__all__ = [
    "Check",
    "VerificationReport",
    "verify_run",
    "verify_identities",
    "verify_equilibrium_counts",
]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    measured: float
    threshold: float


@dataclass
class VerificationReport:
    checks: list
    meta: dict = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


# Scale-free verification thresholds, each used as coeff * scale (c: the run's unit).
SPEC_DRIFT = 1e-7  # scale: c
NORM_DRIFT = 1e-8  # scale: c
LYAPUNOV_SLACK = 1e-9  # scale: max |f| along the run
FINAL_RESIDUAL = 1e-6  # scale: ||a0||^2
LIMIT_MATCH = 1e-6  # scale: ||a0||_2
ZERO_SLOTS = 1e-6  # scale: ||a0||_2
SORTED_MARGIN = 1e-8  # scale: ||a0||^2, on squared entries
REFERENCE_SPECTRUM = 1e-9  # scale: c^2, on the sum of squared eigenvalues


def trajectory_checks(traj) -> list:
    """The checks of what the flow guarantees on any input, for a trajectory
    of either class: integrate(a0) or integrate_dense(H0).

    traj keeps its input as x0 and its unit c, ||a0|| or ||H0||_F / sqrt(2).
    Squares are taken of the trajectory's unit rows, the states in units of
    c, so no check under- or overflows where the run itself did not. The one
    part that depends on the shape, each unit row's squared norm, comes from
    the class (_sq_norms). A stationary_input trajectory has one row and gets
    one check, its stop test: stationary_residual, k_norms[0] <= eq_eps.
    """
    if traj.status == "stationary_input":
        resid = float(traj.k_norms[0])
        return [Check("stationary_residual", resid <= traj.eq_eps, resid, traj.eq_eps)]

    scale = traj.c
    sq = scale * scale
    checks = []

    drift = float(traj.spec_drift.max())
    checks.append(Check("spectral_drift", drift <= SPEC_DRIFT * scale,
                        drift, SPEC_DRIFT * scale))

    norms = scale * np.sqrt(traj._sq_norms(traj.unit_states))
    norm_dev = float(np.abs(norms - scale).max())
    checks.append(Check("frobenius_conservation", norm_dev <= NORM_DRIFT * scale,
                        norm_dev, NORM_DRIFT * scale))

    f_scale = float(np.abs(traj.f_values).max(initial=0.0))
    dips = -np.diff(traj.f_values)
    worst_dip = max(0.0, float(dips.max(initial=0.0)))
    slack = LYAPUNOV_SLACK * f_scale
    checks.append(Check("lyapunov_monotone", worst_dip <= slack, worst_dip, slack))

    # the drift and the predicted limit are measured against traj.spectrum,
    # so it must be the spectrum of x0: tr(H^2) = 2 c^2
    unit_eigs = traj.spectrum.values / scale
    trace_dev = sq * abs(float(np.sum(unit_eigs * unit_eigs)) - 2.0)
    bound = REFERENCE_SPECTRUM * sq
    checks.append(Check("reference_spectrum", trace_dev <= bound, trace_dev, bound))

    return checks


def verify_run(a0, cfg: IntegratorConfig | None = None, *,
               strict: bool = True) -> VerificationReport:
    """Integrate a0; check trajectory_checks, the equilibrium and the limit.

    With strict=False, validation is relaxed and the limit-prediction checks
    are skipped (their hypotheses need nonzero entries and distinct
    magnitudes). A stationary input yields trajectory_checks' short report
    alone. The meta keys are summary fields (see io.build_summary).
    """
    traj = integrate(a0, cfg, validate=strict)
    meta = {
        "status": traj.status,
        "final_offdiag": traj.final_state,
        "config": traj.config,
    }
    checks = trajectory_checks(traj)
    if traj.status == "stationary_input":
        meta["notes"] = "skipped (stationary input)"
        return VerificationReport(checks=checks, meta=meta)

    scale = traj.c
    sq = scale * scale

    # k_norms[-1] from the last row alone; k_norms would build every row's
    final_resid = float(scale * (scale * traj._residuals(traj.rows[-1:])[0]))
    checks.append(Check("equilibrium_reached",
                        final_resid <= FINAL_RESIDUAL * sq,
                        final_resid, FINAL_RESIDUAL * sq))

    final = traj.final_state
    spec = traj.spectrum
    meta["spectrum"] = spec.values
    if strict:
        # integrate(validate=True) has made predict_limit's checks on a0
        predicted = _limit_state(traj.x0, spec)
        meta["predicted_limit"] = predicted

        dev = float(np.abs(final - predicted).max())
        checks.append(Check("limit_match", dev <= LIMIT_MATCH * scale,
                            dev, LIMIT_MATCH * scale))

        live = limit_slots(traj.n)
        zdev = float(np.abs(final[~live]).max(initial=0.0))
        checks.append(Check("limit_zero_slots", zdev <= ZERO_SLOTS * scale,
                            zdev, ZERO_SLOTS * scale))

        sq_live = final[live] ** 2
        min_gap = float(np.diff(sq_live).min()) if sq_live.size > 1 else math.inf
        margin = SORTED_MARGIN * sq
        checks.append(Check("sorted_magnitudes_min_gap", min_gap > margin,
                            min_gap, margin))
    else:
        meta["notes"] = "skipped (strict=False)"

    return VerificationReport(checks=checks, meta=meta)


def _sym(rng, n, lim=5.0):
    A = rng.uniform(-lim, lim, (n, n))
    return 0.5 * (A + A.T)


# verify_identities' checks and thresholds, in the order it measures them
_IDENTITIES = (("commutator_matches_quadratic_map", 1e-10), ("rhs_dense_vs_componentwise", 1e-10),
               ("nested_bracket_trace_identity", 1e-9), ("lyapunov_two_forms_agree", 1e-12),
               ("trace_swap_under_n", 1e-10))


def verify_identities(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Random-input checks of the algebraic identities behind the flow.

    Each deviation is divided by input norms of the identity's degree:
    ||H||^2, ||H||^3, (||A|| ||B||)^2, ||S||^2 + ||N(S)||^2 and n ||A|| ||B||,
    so the measures are scale-free. A deviation of exactly 0 reads 0 (at
    n = 1 every deviation is 0, and H is the zero matrix). The worst trial
    is reported.
    """
    if n < 1 or trials < 1:
        raise ValidationFailure("need n >= 1 and trials >= 1")
    rng = np.random.default_rng(seed)

    worst = [0.0] * len(_IDENTITIES)
    for _ in range(trials):
        a = rng.uniform(-20.0, 20.0, max(n - 1, 0))
        H = embed(a)
        h_norm = float(np.linalg.norm(H))
        A = _sym(rng, n)
        B = _sym(rng, n)
        ab_norm = float(np.linalg.norm(A)) * float(np.linalg.norm(B))
        C = commutator(A, B)
        S = _sym(rng, n, lim=20.0)
        # (deviation, its scale), one pair per identity
        devs = (
            (np.linalg.norm(map_K(a) - commutator(H, map_N(H))), h_norm**2),
            (np.linalg.norm(rhs_matrix(H) - embed(rhs_componentwise(a))), h_norm**3),
            (abs(np.sum(C * C) - np.trace(B @ commutator(A, C))), ab_norm**2),
            (abs(lyapunov_f(S) - lyapunov_f_traceform(S)),
             np.sum(S * S) + np.sum(map_N(S) ** 2)),
            (abs(np.trace(map_N(A) @ B) - np.trace(map_N(B) @ A)), n * ab_norm),
        )
        worst = [max(w, float(dev / scale) if dev else 0.0)
                 for w, (dev, scale) in zip(worst, devs)]

    checks = [Check(name, w <= bound, w, bound)
              for (name, bound), w in zip(_IDENTITIES, worst)]
    return VerificationReport(checks=checks, meta={"n": n, "trials": trials, "seed": seed})


def brute_force_equilibria(spec: Spectrum) -> list:
    """All signed placements of the magnitudes that are equilibria with the
    given spectrum, found by exhaustive filtering (test oracle).

    A candidate is an equilibrium when no two neighbours are nonzero, read
    from the pattern because the products under- or overflow at extreme
    scales. Its eigenvalues are solved on it divided by the spectrum's
    ||T||_F and must lie within spec.pair_tol of the spectrum.
    """
    mags = spec.positive_magnitudes
    n = spec.n
    m = mags.size
    candidates = []
    for slots in itertools.permutations(range(n - 1), m):
        for signs in itertools.product((1.0, -1.0), repeat=m):
            a = np.zeros(n - 1)
            a[list(slots)] = mags * signs
            nonzero = a != 0.0
            if not np.any(nonzero[:-1] & nonzero[1:]):
                candidates.append(a)
    eigs = spec.norm * batch_eigenvalues_zero_diag(np.array(candidates) / spec.norm,
                                                   EIG_TOL)
    keep = np.abs(eigs - spec.values).max(axis=1) <= spec.pair_tol
    return [a for a, kept in zip(candidates, keep) if kept]


def _point_key(a: np.ndarray) -> tuple:
    return tuple(np.round(a, 9))


def verify_equilibrium_counts(n: int) -> VerificationReport:
    """Check the equilibrium count formulas and (n <= 6) the full enumeration."""
    if not 2 <= n <= 8:
        raise ValidationFailure("equilibrium counting supports 2 <= n <= 8")
    m = n // 2
    mags = np.arange(1.0, m + 1.0)
    values = np.concatenate([-mags[::-1], np.zeros(1 if n % 2 else 0), mags])
    spec = make_spectrum(values)

    expected = math.factorial(m) if n % 2 == 0 else (m + 1) * math.factorial(m)
    eqset = enumerate_equilibria(spec, include_signs=True)
    plain = enumerate_equilibria(spec, include_signs=False)

    checks = [
        Check("count_formula", eqset.count_formula == expected,
              float(eqset.count_formula), float(expected)),
        Check("count_plain_points", len(plain.points) == expected,
              float(len(plain.points)), float(expected)),
        Check("count_signed_points",
              len(eqset.points) == eqset.count_with_signs,
              float(len(eqset.points)), float(eqset.count_with_signs)),
    ]
    meta = {"n": n, "count_formula": eqset.count_formula,
            "count_with_signs": eqset.count_with_signs}

    if n <= 6:
        brute = brute_force_equilibria(spec)
        got = {_point_key(p) for p in eqset.points}
        want = {_point_key(p) for p in brute}
        sym_diff = len(got ^ want)
        checks.append(Check("signed_enumeration_matches_brute_force",
                            sym_diff == 0, float(sym_diff), 0.0))
    return VerificationReport(checks=checks, meta=meta)
