"""Tests of the benchmark itself: every workload at a tiny M, and live checks.

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 300


def _benchmark_json() -> dict:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_reports_every_metric(name, trace):
    spec = _benchmark_json()
    result = run.run_workload(replace(WORKLOADS[name], trials=TINY), seed=3, seconds=0, trace=trace,
                              log=lambda line: None)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layers_are_nonzero_only_where_exercised():
    values = {}
    for name, workload in WORKLOADS.items():
        result = run.run_workload(replace(workload, trials=TINY), seed=4, seconds=0, trace=True,
                                  log=lambda line: None)
        values[name] = {k: v["value"] for k, v in result["metrics"].items()}
    for name, metrics in values.items():
        assert (metrics["qpc.calls"] > 0) == (name == "sim-qpc4")
        assert (metrics["oscillator.calls"] > 0) == (name == "sweep-osc")
        assert (metrics["cli.csv_rows_written"] > 0) == (name == "roundtrip-ideal8")
        assert (metrics["cli.csv_parse_s"] > 0) == (name == "roundtrip-ideal8")
        assert metrics["config.resolve_calls"] >= 1
        assert metrics["trace.overhead_ratio"] > 0
    assert values["sweep-osc"]["config.resolve_calls"] == 10
    assert values["sweep-osc"]["experiment.records_kept"] == 9 * TINY
    assert values["roundtrip-ideal8"]["inference.rows_scored"] == TINY


def test_wrong_expectation_counts_as_failure():
    workload = replace(WORKLOADS["sim-qpc4"], trials=TINY, expect={"p_disagree": 0.5})
    result = run.run_workload(workload, seed=3, seconds=0, trace=False, log=lambda line: None)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_layer_metric_names_match_benchmark_json():
    spec = _benchmark_json()
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-qpc4", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
