"""Command-line interface.

Subcommands: evolve, predict, verify, spectrum, equilibria, evolve-sym.
Exit codes: 0 success, 1 parse/validation error (message on stderr),
2 failed verification.
"""

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateMagnitudes,
    DegenerateSpectrum,
    EquilibriumInput,
    KvmflowError,
    PairingViolation,
    ValidationError,
    ZeroEntry,
)
from .flow import IntegratorConfig, integrate, integrate_dense
from .io import (
    MatrixInputDocument,
    build_summary,
    document_to_dict,
    parse_input,
    write_dense_diagnostics_csv,
    write_summary,
    write_trajectory_csv,
)
from .spectral import (
    eigenvalues_tridiagonal,
    enumerate_equilibria,
    make_spectrum,
    predict_limit,
    spectrum_zero_diag,
)
from .verify import verify_run

_EXPERIMENTAL_NOTE = (
    "experimental symmetric-matrix mode: only spectral drift and Lyapunov "
    "monotonicity are guaranteed; block-diagonal limits are reported, not asserted"
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _boolean(text: str) -> bool:
    t = text.strip().lower()
    if t in {"true", "1", "yes", "on"}:
        return True
    if t in {"false", "0", "no", "off"}:
        return False
    raise argparse.ArgumentTypeError(f"expected true/false, got {text!r}")


def _add_input_options(p, offdiag_inline=True):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--input", type=Path, help="JSON input document")
    if offdiag_inline:
        group.add_argument("--offdiag", type=str,
                           help="inline off-diagonal, comma-separated")


def _add_integrator_options(p):
    p.add_argument("--method", choices=["rk45", "rk4"])
    p.add_argument("--dt", type=float)
    p.add_argument("--t-max", type=float, dest="t_max")
    p.add_argument("--eq-eps", type=float, dest="eq_eps")
    p.add_argument("--abs-tol", type=float, dest="abs_tol")
    p.add_argument("--rel-tol", type=float, dest="rel_tol")
    p.add_argument("--record-stride", type=int, dest="record_stride")


def _add_output_options(p, csv=False):
    if csv:
        p.add_argument("--out-csv", type=Path, dest="out_csv")
    p.add_argument("--out-summary", type=Path, dest="out_summary")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kvmflow",
                     description="Sorting isospectral flow on zero-diagonal "
                                 "Jacobi matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evolve", help="integrate the flow, write CSV/summary")
    _add_input_options(p)
    _add_integrator_options(p)
    _add_output_options(p, csv=True)
    p.add_argument("--strict", type=_boolean, default=True)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("predict", help="predicted asymptotic state from the spectrum")
    _add_input_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("verify", help="run and check every trajectory claim")
    _add_input_options(p)
    _add_integrator_options(p)
    _add_output_options(p)
    p.add_argument("--strict", type=_boolean, default=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues of the input matrix")
    _add_input_options(p)
    _add_output_options(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("equilibria", help="enumerate equilibria sharing the spectrum")
    _add_input_options(p)
    _add_output_options(p)
    p.add_argument("--include-signs", type=_boolean, default=True,
                   dest="include_signs")
    p.set_defaults(func=_cmd_equilibria)

    p = sub.add_parser("evolve-sym",
                       help="experimental: integrate a full symmetric matrix")
    _add_input_options(p, offdiag_inline=False)
    _add_integrator_options(p)
    _add_output_options(p, csv=True)
    p.set_defaults(func=_cmd_evolve_sym)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (KvmflowError, OSError) as exc:
        print(f"kvmflow: error: {exc}", file=sys.stderr)
        return 1


def _load_document(args) -> MatrixInputDocument:
    if getattr(args, "offdiag", None) is not None:
        entries = []
        for tok in args.offdiag.split(","):
            if not tok.strip():
                continue
            try:
                entries.append(float(tok))
            except ValueError:
                raise ValidationError(f"--offdiag entry {tok.strip()!r} is not a number") from None
        return MatrixInputDocument(n=len(entries) + 1,
                                   offdiag=np.array(entries, dtype=np.float64))
    return parse_input(Path(args.input).read_bytes())


def _require_offdiag(doc: MatrixInputDocument) -> np.ndarray:
    if doc.offdiag is None:
        raise KvmflowError(
            "this subcommand needs an off-diagonal input; "
            "use evolve-sym for dense symmetric documents"
        )
    return doc.offdiag


def _cfg_from_args(args) -> IntegratorConfig:
    kw = {}
    for name in ("method", "dt", "t_max", "eq_eps", "abs_tol", "rel_tol",
                 "record_stride"):
        value = getattr(args, name, None)
        if value is not None:
            kw[name] = value
    return IntegratorConfig(**kw)


def _emit(args, doc: MatrixInputDocument, **fields) -> None:
    """Write the summary of doc's run to --out-summary, or to stdout."""
    summary = build_summary(label=doc.label, input=document_to_dict(doc), **fields)
    write_summary(summary, args.out_summary or sys.stdout)


def _try_prediction(a: np.ndarray, spec):
    try:
        return predict_limit(a, spec), None
    except EquilibriumInput:
        return None, "stationary_input"
    except (ZeroEntry, DegenerateMagnitudes, DegenerateSpectrum, PairingViolation) as exc:
        return None, f"unavailable: {exc}"


def _cmd_evolve(args) -> int:
    doc = _load_document(args)
    a = _require_offdiag(doc)
    cfg = _cfg_from_args(args)
    traj = integrate(a, cfg, validate=args.strict)
    if args.out_csv is not None:
        write_trajectory_csv(traj, args.out_csv)

    spec = traj.spectrum or eigenvalues_tridiagonal(np.zeros(doc.n), a)
    predicted, note = (None, None)
    if args.strict:
        predicted, note = _try_prediction(a, spec)
    _emit(args, doc, notes=note, status=traj.status, final_offdiag=traj.final_state,
          spectrum=spec.values, predicted_limit=predicted,
          config=asdict(traj.config))
    return 0


def _cmd_predict(args) -> int:
    doc = _load_document(args)
    a = _require_offdiag(doc)
    spec = spectrum_zero_diag(a)
    predicted, note = _try_prediction(a, spec)
    if note is not None and note != "stationary_input":
        raise KvmflowError(f"prediction {note}")
    _emit(args, doc, status=note, spectrum=spec.values, predicted_limit=predicted)
    return 0


def _cmd_verify(args) -> int:
    doc = _load_document(args)
    a = _require_offdiag(doc)
    report = verify_run(a, _cfg_from_args(args), strict=args.strict)
    _emit(args, doc, checks=report.to_dict()["checks"], overall=report.overall,
          **report.meta)
    return 0 if report.overall else 2


def _cmd_spectrum(args) -> int:
    doc = _load_document(args)
    if doc.offdiag is not None:
        spec = eigenvalues_tridiagonal(np.zeros(doc.n), doc.offdiag)
        paired = spec.paired
    else:
        spec = make_spectrum(np.linalg.eigvalsh(doc.symmetric))
        paired = None  # pairing is a property of zero-diagonal matrices
    _emit(args, doc, spectrum=spec.values,
          extras={"gap_min": spec.gap_min, "paired": paired})
    return 0


def _cmd_equilibria(args) -> int:
    doc = _load_document(args)
    a = _require_offdiag(doc)
    spec = spectrum_zero_diag(a)
    eqset = enumerate_equilibria(spec, include_signs=args.include_signs)
    _emit(args, doc, spectrum=spec.values, extras={
        "include_signs": args.include_signs,
        "count_formula": eqset.count_formula,
        "count_with_signs": eqset.count_with_signs,
        "points": [[float(x) for x in p] for p in eqset.points],
    })
    return 0


def _cmd_evolve_sym(args) -> int:
    doc = parse_input(Path(args.input).read_bytes())
    if doc.symmetric is None:
        raise KvmflowError("evolve-sym needs a 'symmetric' input document")
    traj = integrate_dense(doc.symmetric, _cfg_from_args(args))
    if args.out_csv is not None:
        write_dense_diagnostics_csv(traj, args.out_csv)
    _emit(args, doc, mode="experimental-symmetric", notes=_EXPERIMENTAL_NOTE,
          status=traj.status, config=asdict(traj.config), extras={
              "final_matrix": [[float(x) for x in row] for row in traj.final_state],
              "final_blocks": traj.final_blocks,
              "spec_drift_max": float(traj.spec_drift.max()),
              "lyapunov_final": float(traj.f_values[-1]),
          })
    return 0


if __name__ == "__main__":
    sys.exit(main())
