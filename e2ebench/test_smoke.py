"""Smoke test of the benchmark at tiny sizes (``python3 -m pytest e2ebench``).

Runs every workload once per mode and checks the printed result against
``BENCHMARK.json``: every named metric is present with its unit, the
counts are whole numbers, and a deliberately corrupted result is counted
as failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--smoke", *extra],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def assert_shape(result: dict, metrics: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert set(result["metrics"]) == {m["name"] for m in metrics}
    for m in metrics:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"], m["name"]
        assert isinstance(entry["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, "--trace", "0")
    assert_shape(result, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    result = run(workload, "--trace", "1")
    assert_shape(result, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["trace.time_to_result_s"]["value"] > 0
    assert (BENCH_DIR / "out" / f"spans-{workload}.jsonl").is_file()


def test_layers_sum_to_traced_time_to_result():
    metrics = run("wide_23q", "--trace", "1")["metrics"]
    import layers

    total = metrics["trace.time_to_result_s"]["value"]
    attributed = sum(metrics[name]["value"] for name in layers.SUM_LAYERS)
    share = metrics["unattributed_share"]["value"]
    assert attributed + share * total == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_counts_as_failed(workload):
    result = run(workload, "--trace", "0", "--corrupt")
    assert result["failed"] >= 1
    assert not result["correct"]


def test_exits_nonzero_without_the_program(tmp_path):
    """A checkout holding only BENCHMARK.json and this directory."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (tmp_path / "e2ebench").mkdir()
    for f in BENCH_DIR.iterdir():
        if f.is_file():
            (tmp_path / "e2ebench" / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "headline_18q",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
