"""Self-tests of the benchmark.  Run from the repository root with::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from harness import END_TO_END_UNITS, PER_LAYER_UNITS, tail  # noqa: E402

WORKLOADS = ("ttm-small", "tucker", "ooc", "serve")


@functools.lru_cache(maxsize=None)
def run_bench(workload: str, trace: int) -> dict:
    """A one-second run; its final JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_emits_every_metric_and_fails_nothing(workload, trace):
    result = run_bench(workload, trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1


def test_front_end_parts_account_for_a_ttm_call():
    """plan hit + output allocation + execute into it ≈ one ``repro.ttm``."""
    metrics = run_bench("ttm-small", 1)["metrics"]
    parts = sum(metrics[name]["value"] for name in (
        "intensli.plan_hit_us", "tensor.alloc_us", "intensli.execute_us"))
    assert 0.6 <= parts / metrics["intensli.ttm_us"]["value"] <= 1.4


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        metrics = run_bench(workload, 0)["metrics"]
        assert all(m["value"] > 0 for m in metrics.values()), workload


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail(list(range(1000))) == (99.0, 989, 10)
    assert tail(list(range(999))) == (90.0, 899, 99)
    assert tail(list(range(15))) == (50.0, 7, 7)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ttm-small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout


def test_benchmark_json_names_what_the_harness_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
