"""The metric sets run.py reports match what BENCHMARK.json declares."""

import json
import os

import pytest

from run import PRINTED_ONLY, end_to_end, per_layer
from workloads import WORKLOADS

BENCHMARK = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


def _invocation(traced, run_s):
    trace = {"layers": {"cli": {"self_s": 0.1, "calls": 2, "errors": 0},
                        "training": {"self_s": run_s - 0.1, "calls": 5, "errors": 0}},
             "functions": {"qcnn.circuit_ops": {"self_s": 0.0, "calls": 200}},
             "harness_wait_s": run_s - 0.2, "gate_ops": 60}
    return {"traced": traced, "ok": True, "run_s": run_s, "run_cpu_s": run_s - 0.05,
            "setup_wall_s": 0.2, "setup_cpu_s": 0.19, "peak_rss_mb": 40.0,
            "finals": {"metrics_rep0.csv": [0.08, 1.0, 0.09, 0.99]},
            "trace": trace if traced else None}


@pytest.fixture(scope="module")
def declared():
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)


def test_end_to_end_names_and_units_match(declared):
    invocations = [_invocation(False, 3.0), _invocation(False, 3.2)]
    setups = [{"setup_wall_s": 0.2, "setup_cpu_s": 0.19}, {"setup_wall_s": 0.25, "setup_cpu_s": 0.23}]
    got = end_to_end(WORKLOADS["qcnn-digits"], setups, invocations)
    reported = {k: unit for k, (_, unit, _) in got.items() if k not in PRINTED_ONLY}
    assert reported == {m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert got["setup_s"][0] == pytest.approx(0.21)
    assert got["setup_wall_s"][0] == pytest.approx(0.225)
    assert got["run_cpu_s"][0] == pytest.approx(3.05)
    assert got["run_s"][0] == pytest.approx(3.1)
    assert got["epochs_per_s"][0] == pytest.approx(100 / 3.1)
    assert got["final_test_acc"][0] == 0.99


def test_per_layer_names_and_units_match(declared):
    invocations = [_invocation(False, 3.0), _invocation(True, 3.3),
                   _invocation(False, 2.0), _invocation(True, 2.1)]
    got = per_layer(WORKLOADS["qcnn-digits"], invocations)
    assert {k: unit for k, (_, unit, _) in got.items()} == \
        {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert got["qcnn.circuit_ops.calls_per_epoch"][0] == 2.0
    assert got["trace.overhead_frac"][0] == pytest.approx(0.075)
    assert got["trace.self_coverage"][0] == pytest.approx(1.0)


def test_declared_workloads_exist(declared):
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
