"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

Every ``*_ms`` value and every count is per traced operation (one
``verify_run`` call or one CLI process). A layer the workload
never enters reads 0; a metric whose program function is gone is absent.
"""

# name -> (unit, better, end-to-end metric @ workload it should move)
LAYER_METRICS = {
    "kernels.offdiag.calls": ("count/op", "lower", "latency_ref@oracle,examples"),
    "kernels.offdiag.self_ms": ("ms/op", "lower", "latency_ref@oracle,examples"),
    "kernels.offdiag.steps_accepted": ("count/op", "lower", "latency_ref@oracle,examples"),
    "kernels.offdiag.steps_rejected": ("count/op", "lower", "latency_ref@oracle,examples"),
    "kernels.offdiag.accept_ratio": ("ratio", "higher", "latency_ref@oracle,examples"),
    "kernels.offdiag.us_per_step": ("us/step", "lower", "latency_ref@oracle,examples"),
    "kernels.sturm_batch.self_ms": ("ms/op", "lower", "latency_ref@examples"),
    "kernels.sturm_batch.rows": ("count/op", "lower", "latency_ref@examples"),
    "spectral.drift.self_ms": ("ms/op", "lower", "latency_ref@examples"),
    "spectral.drift.eigs": ("count/op", "lower", "latency_ref@examples"),
    "spectral.drift.ns_per_eig": ("ns/eig", "lower", "latency_ref@examples"),
    "spectral.reference.calls": ("count/op", "lower", "latency_ref@oracle"),
    "spectral.reference.self_ms": ("ms/op", "lower", "latency_ref@oracle"),
    "spectral.predict_limit.self_ms": ("ms/op", "lower", "latency_ref@oracle"),
    "jacobi.diagnostics.self_ms": ("ms/op", "lower", "latency_ref@examples"),
    "jacobi.diagnostics.rows": ("count/op", "lower", "latency_ref@examples"),
    "flow.integrate.self_ms": ("ms/op", "lower", "latency_ref@oracle"),
    "flow.integrate.rows_recorded": ("count/op", "lower", "latency_ref@oracle"),
    "kernels.dense.self_ms": ("ms/op", "lower", "latency_ref@cli"),
    "kernels.dense.steps_accepted": ("count/op", "lower", "latency_ref@cli"),
    "kernels.dense.us_per_step": ("us/step", "lower", "latency_ref@cli"),
    "flow.integrate_dense.self_ms": ("ms/op", "lower", "latency_ref@cli"),
    "verify.verify_run.self_ms": ("ms/op", "lower", "latency_ref@oracle"),
    "verify.trajectory_checks.self_ms": ("ms/op", "lower", "latency_ref@examples,oracle"),
    "verify.checks_failed": ("count/op", "lower", "latency_ref@examples,oracle"),
    "io.parse_input.self_ms": ("ms/op", "lower", "latency_ref@cli"),
    "io.write_trajectory_csv.self_ms": ("ms/op", "lower", "latency_ref@cli"),
    "io.write_trajectory_csv.bytes": ("B/op", "lower", "latency_ref@cli"),
    "io.write_summary.self_ms": ("ms/op", "lower", "latency_ref@cli"),
    "io.write_summary.bytes": ("B/op", "lower", "latency_ref@cli"),
    "cli.main.self_ms": ("ms/op", "lower", "latency_ref@cli"),
    "cli.startup_ms": ("ms/op", "lower", "latency_ref@cli"),
    "trace.coverage": ("ratio", "higher", "none: share of operation wall time inside spans"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced total operation time"),
}

# measured by the harness around the operation, not from spans
HARNESS_METRICS = ("cli.startup_ms", "trace.coverage", "trace.overhead_ratio")
# metrics read from a counter of another span than their name says
_COUNTER_SPAN = {"verify.checks_failed": ("verify.verify_run", "checks_failed")}


def _totals(spans) -> dict:
    out = {}
    for s in spans:
        t = out.setdefault(s["name"], {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                                       "counts": {}})
        t["calls"] += 1
        t["self_s"] += s["self_s"]
        t["total_s"] += s["end"] - s["start"]
        for key, value in s["counts"].items():
            t["counts"][key] = t["counts"].get(key, 0) + value
    return out


def layer_metrics(spans, ops: int, available) -> dict:
    """Per-layer metrics from the spans of ``ops`` traced operations.

    ``available`` holds the span names the program still has functions for;
    the trace.* and cli.* metrics come from the harness and are not made here.
    """
    totals = _totals(spans)
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "counts": {}}
    out = {}
    for name in LAYER_METRICS:
        span, field = _COUNTER_SPAN.get(name, name.rsplit(".", 1))
        if name in HARNESS_METRICS or span not in available:
            continue
        t = totals.get(span, empty)
        counts = t["counts"]
        if field == "calls":
            value = t["calls"] / ops
        elif field == "self_ms":
            value = 1e3 * t["self_s"] / ops
        elif field in ("accept_ratio", "us_per_step"):
            if t["calls"] and "steps_accepted" not in counts:
                continue  # the kernel's return value no longer carries step counts
            acc = counts.get("steps_accepted", 0)
            if field == "us_per_step":
                value = 1e6 * t["total_s"] / acc if acc else 0.0
            else:
                tried = acc + counts.get("steps_rejected", 0)
                value = acc / tried if tried else 0.0
        elif field == "ns_per_eig":
            eigs = counts.get("eigs", 0)
            value = 1e9 * t["total_s"] / eigs if eigs else 0.0
        else:
            if t["calls"] and field not in counts:
                continue
            value = counts.get(field, 0) / ops
        out[name] = float(value)
    return out
