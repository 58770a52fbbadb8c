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
    as_offdiag,
    commutator,
    embed,
    equilibrium_residual,
    lyapunov_f,
    lyapunov_f_traceform,
    map_K,
    map_N,
    rhs_componentwise,
    rhs_matrix,
    scaled_norm,
)
from .spectral import (
    Spectrum,
    batch_eigenvalues_zero_diag,
    default_eig_tol,
    make_spectrum,
    predict_limit,
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


# Scale-free verification thresholds, each used as coeff * scale.
SPEC_DRIFT = 1e-7  # scale: ||a0||_2
NORM_DRIFT = 1e-8  # scale: ||a0||_2
LYAPUNOV_SLACK = 1e-9  # scale: max |f| along the run
FINAL_RESIDUAL = 1e-6  # scale: ||a0||^2
LIMIT_MATCH = 1e-6  # scale: ||a0||_2
ZERO_SLOTS = 1e-6  # scale: ||a0||_2
SORTED_MARGIN = 1e-8  # scale: ||a0||^2, on squared entries
REFERENCE_SPECTRUM = 1e-9  # scale: ||a0||^2, on the sum of squared eigenvalues


def trajectory_checks(traj, a0: np.ndarray) -> list:
    """Invariant checks shared by verify_run and the acceptance suite.

    Squares are taken of the states divided by ||a0||, so no check under- or
    overflows where the run itself did not.
    """
    scale = scaled_norm(a0)
    sq = scale * scale
    checks = []

    drift = float(traj.spec_drift.max())
    checks.append(Check("spectral_drift", drift <= SPEC_DRIFT * scale,
                        drift, SPEC_DRIFT * scale))

    unit_rows = traj.states / scale
    norms = scale * np.sqrt(np.sum(unit_rows * unit_rows, axis=1))
    norm_dev = float(np.abs(norms - scale).max())
    checks.append(Check("frobenius_conservation", norm_dev <= NORM_DRIFT * scale,
                        norm_dev, NORM_DRIFT * scale))

    f_scale = float(np.abs(traj.f_values).max(initial=0.0))
    dips = -np.diff(traj.f_values)
    worst_dip = max(0.0, float(dips.max(initial=0.0)))
    slack = LYAPUNOV_SLACK * f_scale
    checks.append(Check("lyapunov_monotone", worst_dip <= slack, worst_dip, slack))

    # a decaying component may underflow to exactly 0.0 (its limit); only a
    # strictly opposite sign is a genuine orthant crossing
    flips = int(np.sum(np.sign(traj.states) * np.sign(a0)[None, :] < 0.0))
    checks.append(Check("sign_preservation", flips == 0, float(flips), 0.0))

    # the drift and the predicted limit are measured against traj.spectrum,
    # so it must be the spectrum of a0: tr(H^2) = 2 ||a0||^2
    unit_eigs = traj.spectrum.values / scale
    trace_dev = sq * abs(float(np.sum(unit_eigs * unit_eigs)) - 2.0)
    bound = REFERENCE_SPECTRUM * sq
    checks.append(Check("reference_spectrum", trace_dev <= bound, trace_dev, bound))

    return checks


def verify_run(a0, cfg: IntegratorConfig | None = None, *,
               strict: bool = True) -> VerificationReport:
    """Integrate a0 and check every trajectory-level claim.

    With strict=False, validation is relaxed and the limit-prediction checks
    are skipped (their hypotheses need nonzero entries and distinct
    magnitudes). A stationary input yields a short report with the
    prediction checks skipped. The meta keys are summary fields (see
    io.build_summary).
    """
    a0 = as_offdiag(a0)
    traj = integrate(a0, cfg, validate=strict)
    meta = {
        "status": traj.status,
        "final_offdiag": traj.final_state,
        "config": traj.config,
    }

    if traj.status == "stationary_input":
        resid = float(traj.k_norms[0])
        meta["notes"] = "skipped (stationary input)"
        return VerificationReport(
            checks=[Check("stationary_residual", resid <= traj.eq_eps,
                          resid, traj.eq_eps)],
            meta=meta,
        )

    scale = scaled_norm(a0)
    sq = scale * scale
    checks = trajectory_checks(traj, a0)

    final_resid = float(traj.k_norms[-1])
    checks.append(Check("equilibrium_reached",
                        final_resid <= FINAL_RESIDUAL * sq,
                        final_resid, FINAL_RESIDUAL * sq))

    final = traj.final_state
    spec = traj.spectrum
    meta["spectrum"] = spec.values
    if strict:
        predicted = predict_limit(a0, spec)
        meta["predicted_limit"] = predicted

        dev = float(np.abs(final - predicted).max())
        checks.append(Check("limit_match", dev <= LIMIT_MATCH * scale,
                            dev, LIMIT_MATCH * scale))

        live = limit_slots(a0.size + 1)
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


def verify_identities(n: int, trials: int = 100, seed: int = 0) -> VerificationReport:
    """Random-input checks of the algebraic identities behind the flow.

    All deviations are normalized by (1 + scale) with the scale matching the
    identity's degree in the inputs, and the worst trial is reported.
    """
    if n < 1 or trials < 1:
        raise ValidationFailure("need n >= 1 and trials >= 1")
    rng = np.random.default_rng(seed)

    w_prop3 = w_rhs = w_tracechar = w_twoform = w_swap = 0.0
    for _ in range(trials):
        a = rng.uniform(-20.0, 20.0, max(n - 1, 0))
        H = embed(a)
        h_norm = float(np.linalg.norm(H))

        dev = float(np.linalg.norm(map_K(a) - commutator(H, map_N(H))))
        w_prop3 = max(w_prop3, dev / (1 + h_norm**2))

        dev = float(np.linalg.norm(rhs_matrix(H) - embed(rhs_componentwise(a))))
        w_rhs = max(w_rhs, dev / (1 + h_norm**3))

        A = _sym(rng, n)
        B = _sym(rng, n)
        C = commutator(A, B)
        c_sq = float(np.sum(C * C))
        dev = abs(c_sq - float(np.trace(B @ commutator(A, C))))
        w_tracechar = max(w_tracechar, dev / (1 + c_sq))

        S = _sym(rng, n, lim=20.0)
        NS = map_N(S)
        dev = abs(lyapunov_f(S) - lyapunov_f_traceform(S))
        w_twoform = max(w_twoform, dev / (1 + float(np.sum(S * S)) + float(np.sum(NS * NS))))

        dev = abs(float(np.trace(map_N(A) @ B)) - float(np.trace(map_N(B) @ A)))
        w_swap = max(w_swap, dev / (1 + n * float(np.linalg.norm(A)) * float(np.linalg.norm(B))))

    checks = [
        Check("commutator_matches_quadratic_map", w_prop3 <= 1e-10, w_prop3, 1e-10),
        Check("rhs_dense_vs_componentwise", w_rhs <= 1e-10, w_rhs, 1e-10),
        Check("nested_bracket_trace_identity", w_tracechar <= 1e-9, w_tracechar, 1e-9),
        Check("lyapunov_two_forms_agree", w_twoform <= 1e-12, w_twoform, 1e-12),
        Check("trace_swap_under_n", w_swap <= 1e-10, w_swap, 1e-10),
    ]
    return VerificationReport(checks=checks, meta={"n": n, "trials": trials, "seed": seed})


def brute_force_equilibria(spec: Spectrum) -> list:
    """All signed placements of the magnitudes that are equilibria with the
    given spectrum, found by exhaustive filtering (test oracle)."""
    mags = spec.positive_magnitudes
    n = spec.n
    m = mags.size
    atol = 1e-9 * (1 + float(np.abs(spec.values).max(initial=0.0)))
    found = []
    for slots in itertools.permutations(range(n - 1), m):
        for signs in itertools.product((1.0, -1.0), repeat=m):
            a = np.zeros(n - 1)
            for v, s, p in zip(mags, signs, slots):
                a[p] = v * s
            if equilibrium_residual(a) != 0.0:
                continue
            eigs = batch_eigenvalues_zero_diag(a[None, :], default_eig_tol(mags.max()))[0]
            if np.abs(eigs - spec.values).max() <= atol:
                found.append(a)
    return found


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
