"""JSON input documents, trajectory CSV, and diff-stable JSON summaries.

Reals are written with 17 significant digits, which round-trips binary64
exactly; summary keys have a fixed order so identical runs produce
byte-identical files.
"""

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "MatrixInputDocument",
    "parse_input",
    "document_to_dict",
    "write_trajectory_csv",
    "write_summary",
    "build_summary",
]

_ALLOWED_KEYS = {"n", "offdiag", "symmetric", "label"}


@dataclass(frozen=True)
class MatrixInputDocument:
    n: int
    offdiag: np.ndarray | None = None  # length n-1
    symmetric: np.ndarray | None = None  # (n, n), experimental mode
    label: str | None = None


def _reject_constant(name):
    raise ParseError(f"non-finite JSON constant {name!r} is not allowed")


def _as_number_list(values, fieldname):
    out = []
    for i, v in enumerate(values):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ValidationError(f"{fieldname}[{i}] is not a number: {v!r}")
        f = float(v)
        if not np.isfinite(f):
            raise ValidationError(f"{fieldname}[{i}] is not finite")
        out.append(f)
    return out


def parse_input(data) -> MatrixInputDocument:
    """Parse and validate a JSON input document (bytes or str, UTF-8).

    Accepts either {"n": n, "offdiag": [...n-1 reals...]} or
    {"symmetric": [[...]]} plus an optional "label".
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc

    if not isinstance(obj, dict):
        raise ValidationError("top-level JSON value must be an object")
    unknown = set(obj) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown field(s): {sorted(unknown)}")
    if ("offdiag" in obj) == ("symmetric" in obj):
        raise ValidationError("exactly one of 'offdiag' or 'symmetric' is required")

    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise ValidationError("'label' must be a string")

    if "offdiag" in obj:
        if "n" not in obj:
            raise ValidationError("'n' is required with 'offdiag'")
        n = obj["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValidationError(f"'n' must be a positive integer, got {n!r}")
        if not isinstance(obj["offdiag"], list):
            raise ValidationError("'offdiag' must be a list of numbers")
        entries = _as_number_list(obj["offdiag"], "offdiag")
        if len(entries) != n - 1:
            raise ValidationError(
                f"'offdiag' must have length n-1 = {n - 1}, got {len(entries)}"
            )
        return MatrixInputDocument(n=n, offdiag=np.array(entries, dtype=np.float64),
                                   label=label)

    rows = obj["symmetric"]
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError("'symmetric' must be a non-empty list of rows")
    n = len(rows)
    mat = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"'symmetric' row {i} has length {len(row)}, expected {n}")
        mat.append(_as_number_list(row, f"symmetric[{i}]"))
    H = np.array(mat, dtype=np.float64)
    if "n" in obj and obj["n"] != n:
        raise ValidationError(f"'n'={obj['n']} does not match matrix dimension {n}")
    defect = float(np.abs(H - H.T).max())
    if defect > 1e-12 * (1.0 + float(np.abs(H).max())):
        raise ValidationError(f"'symmetric' matrix is asymmetric (defect {defect:.3e})")
    return MatrixInputDocument(n=n, symmetric=0.5 * (H + H.T), label=label)


def document_to_dict(doc: MatrixInputDocument) -> dict:
    """Input echo in the same schema parse_input accepts (bit-exact floats)."""
    out = {}
    if doc.label is not None:
        out["label"] = doc.label
    out["n"] = int(doc.n)
    if doc.offdiag is not None:
        out["offdiag"] = [float(x) for x in doc.offdiag]
    else:
        out["symmetric"] = [[float(x) for x in row] for row in doc.symmetric]
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _open_sink(sink, mode="w"):
    if hasattr(sink, "write"):
        return sink, False
    return open(Path(sink), mode, encoding="utf-8", newline=""), True


def _write_rows(sink, header, columns) -> None:
    """Write a CSV header, then one row per sample of the stacked columns."""
    fh, owned = _open_sink(sink)
    try:
        fh.write(",".join(header) + "\n")
        for row in np.column_stack(columns).tolist():
            fh.write(",".join([_fmt(v) for v in row]) + "\n")
    finally:
        if owned:
            fh.close()


def write_trajectory_csv(traj, sink) -> None:
    """Write one row per sample: t, a_1..a_{n-1}, f, k_norm, spec_drift."""
    k = traj.states.shape[1]
    header = ["t"] + [f"a_{i + 1}" for i in range(k)] + ["f", "k_norm", "spec_drift"]
    _write_rows(sink, header,
                [traj.times, traj.states, traj.f_values, traj.k_norms, traj.spec_drift])


def write_dense_diagnostics_csv(traj, sink) -> None:
    """Diagnostics-only CSV for dense runs: t, f, k_norm, spec_drift."""
    _write_rows(sink, ["t", "f", "k_norm", "spec_drift"],
                [traj.times, traj.f_values, traj.k_norms, traj.spec_drift])


_SUMMARY_KEYS = (
    "label",
    "mode",
    "notes",
    "input",
    "status",
    "final_offdiag",
    "spectrum",
    "predicted_limit",
    "checks",
    "overall",
    "config",
)


def _jsonable(v):
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v]
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def build_summary(*, extras: dict | None = None, **fields) -> dict:
    """Summary mapping with the keys of _SUMMARY_KEYS in order (null for
    absent values), then extras; a field outside _SUMMARY_KEYS is a TypeError."""
    unknown = set(fields).difference(_SUMMARY_KEYS)
    if unknown:
        raise TypeError(f"unknown summary field(s): {sorted(unknown)}")
    out = {k: _jsonable(fields.get(k)) for k in _SUMMARY_KEYS}
    for k, v in (extras or {}).items():
        out[k] = _jsonable(v)
    return out


def write_summary(summary: dict, sink) -> None:
    """Serialize a summary dict (see build_summary) to a path or a stream."""
    if not isinstance(summary, dict):
        raise TypeError(f"cannot summarize object of type {type(summary).__name__}")
    fh, owned = _open_sink(sink)
    try:
        fh.write(json.dumps(_jsonable(summary), indent=2))
        fh.write("\n")
    finally:
        if owned:
            fh.close()
