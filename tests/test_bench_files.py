"""Every committed BENCH_*.json is a before/after record of the benchmark
that BENCHMARK.json declares: its summary names each workload, with the
parent's and the change's median of every end-to-end metric and a count of
failed operations on each side."""

import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_summary_covers_every_workload_and_end_to_end_metric(path):
    summary = json.loads(path.read_text())["summary"]
    for workload in BENCHMARK["workloads"]:
        entry = summary[workload["name"]]
        for metric in BENCHMARK["end_to_end"]:
            for side in ("parent", "change"):
                median = entry[metric["name"]][side]["median"]
                assert isinstance(median, (int, float)) and math.isfinite(median)
        for side in ("parent", "change"):
            assert re.fullmatch(r"\d+/[1-9]\d*", entry["failed_operations"][side])
