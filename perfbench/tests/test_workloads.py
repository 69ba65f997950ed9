"""BENCHMARK.json agrees with the tables the benchmark runs from."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perfbench.workloads import END_TO_END_UNITS, PER_LAYER, WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_records_its_reason_and_fixed_rate(workload):
    whys = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert whys[workload] == WORKLOADS[workload].why
    assert f"{WORKLOADS[workload].rate:g}/s" in whys[workload]


def test_metric_units_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END_UNITS
    assert SPEC["per_layer"] == [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better, _moves) in PER_LAYER.items()
    ]
