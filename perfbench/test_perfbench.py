"""Tests of the benchmark itself: run with ``python -m pytest perfbench``."""

import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from layers import LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, oracle_inputs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(workload, trace, **kw):
    """One round of ``workload``; returns (result, printed lines)."""
    buf = io.StringIO()
    result = run.run(workload, seed=3, seconds=0.0, trace=trace, setup_repeats=1,
                     out=buf, **kw)
    lines = buf.getvalue().splitlines()
    assert json.loads(lines[-1]) == result
    return result, lines


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    result, lines = _tiny(workload, trace)
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    env = json.loads(next(l for l in lines if l.startswith("env "))[4:])
    assert {"lane", "python", "numpy", "nproc", "seed", "git_commit"} <= set(env)
    for name in result["metrics"]:
        assert any(l.startswith(name + " ") for l in lines), name
    assert any(l.startswith("fail_ratio ") for l in lines)


def test_metric_tables_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(LAYER_METRICS)
    for m in BENCHMARK["per_layer"]:
        unit, better, _ = LAYER_METRICS[m["name"]]
        assert (m["unit"], m["better"]) == (unit, better)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_latency_ref_and_setup_s_are_scaled_by_their_references():
    class Wl:
        def peak_rss_mb(self):
            return 1.0

    m = {"plain": [0.2, 0.4], "ref": [0.01, 0.03],
         "setup": [(1.0, 2 * run.PROCESS_S), (3.0, run.PROCESS_S), (0.5, run.PROCESS_S)]}
    gated, info = run.end_to_end(Wl(), m)
    assert gated["latency_ref"] == pytest.approx(15.0)
    assert info["ref_ms"] == pytest.approx(20.0)
    assert gated["setup_s"] == pytest.approx(0.5)
    assert info["setup_wall_s"] == pytest.approx(1.0)


def test_planted_wrong_limit_shows_in_fail_ratio(monkeypatch):
    run._import_program()
    from kvmflow import verify

    honest = verify.verify_run

    def off_by_a_little(a0, cfg=None, *args, **kwargs):
        report = honest(a0, cfg, *args, **kwargs)
        report.meta["final_offdiag"] = report.meta["final_offdiag"] + 1e-3
        return report  # every check the program makes still passes

    monkeypatch.setattr(verify, "verify_run", off_by_a_little)
    result, lines = _tiny("oracle", False)
    assert result["failed"] == result["attempted"] >= 1
    assert not result["correct"]
    assert any(l.startswith("FAIL oracle[") for l in lines)


def test_cli_output_for_another_input_fails(tmp_path):
    run._import_program()
    wl = WORKLOADS["cli"](run.ROOT, 3, tmp_path)
    a3 = json.loads((tmp_path / "ex3.json").read_text())
    a3["offdiag"][0] *= 2.0  # the program now answers for a different matrix
    (tmp_path / "ex3.json").write_text(json.dumps(a3))
    m = run.measure(wl, 0.0)
    failed = sorted(line.split(":")[0] for line in m["failures"])
    assert failed == ["evolve", "spectrum"]
    assert m["attempted"] == 5


def test_missing_wrap_target_is_reported_absent(monkeypatch):
    run._import_program()
    from kvmflow import kernels
    from spans import Tracer

    monkeypatch.delattr(kernels, "integrate_offdiag_kernel")
    tracer = Tracer()
    assert tracer.missing == ["kvmflow.kernels.integrate_offdiag_kernel"]
    metrics = layer_metrics([], 1, tracer.available)
    assert not [name for name in metrics if name.startswith("kernels.offdiag.")]
    assert metrics["kernels.sturm_batch.self_ms"] == 0.0


def test_oracle_inputs_follow_the_seed():
    a, b, c = oracle_inputs(7, 30), oracle_inputs(7, 30), oracle_inputs(8, 30)
    assert all(np.array_equal(x[0], y[0]) for x, y in zip(a, b))
    assert not np.array_equal(a[0][0], c[0][0])
    assert [x[0].size + 1 for x in a[:10]] == list(range(3, 13))
    for a0, limit in a:
        eigs = np.linalg.eigvalsh(np.diag(a0, 1) + np.diag(a0, -1))
        assert np.allclose(np.sort(np.abs(limit[limit != 0])), eigs[eigs > 1e-9])


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "examples",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
