"""Ablation: thread allocation — loop-level (P_L) vs kernel-level (P_C).

The paper's PTH rule sends all threads to the loop nest for small inner
kernels and to the GEMM for large ones.  This ablation times both
allocations (and the serial baseline) at ``os.cpu_count()`` threads on a
small-kernel and a large-kernel input: ``P_L`` splits the loop nest over
``parfor`` workers, ``P_C`` runs each kernel call on a BLAS pool of that
many threads.  It verifies that both parallel paths are correct and
measures which side wins on the host it runs on.  With one core there
is nothing to split, and the timing report says "skipped".
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import print_header, print_series
from repro.core.codegen import compile_plan
from repro.core.inttm import default_plan
from repro.perf.flops import gflops_rate, ttm_flops
from repro.perf.timing import time_callable
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_tensor
from tests.helpers import ttm_oracle

CASES = {
    # Small inner kernel (degree 1, tiny trailing dim): PTH says loops.
    "small-kernel": {"shape": (128, 64, 48), "mode": 1, "degree": 1},
    # Large inner kernel (full trailing merge): PTH says kernel.
    "large-kernel": {"shape": (24, 64, 48, 48), "mode": 1, "degree": 2},
}
J = 16
THREADS = os.cpu_count() or 1
ALLOCATIONS = [
    ("serial", 1, 1), (f"P_L={THREADS}", THREADS, 1), (f"P_C={THREADS}", 1, THREADS)
]


def run_case(name, threads=ALLOCATIONS):
    spec = CASES[name]
    shape, mode = spec["shape"], spec["mode"]
    x = random_tensor(shape, seed=3)
    u = np.random.default_rng(4).standard_normal((J, shape[mode]))
    rows = []
    for label, p_l, p_c in threads:
        plan = default_plan(
            shape, mode, J, x.layout, degree=spec["degree"],
            loop_threads=p_l, kernel_threads=p_c, kernel="blas",
        )
        fn = compile_plan(plan)
        out = DenseTensor.empty(plan.out_shape, x.layout)
        seconds = time_callable(
            lambda: fn(x.data, u, out.data), min_repeats=2, min_seconds=0.05
        )
        rows.append((label, gflops_rate(ttm_flops(shape, J), seconds), out))
    return rows


# -- pytest-benchmark targets --------------------------------------------------


@pytest.mark.parametrize("label,p_l,p_c", ALLOCATIONS)
def test_ablation_thread_split_small_kernel(benchmark, label, p_l, p_c):
    spec = CASES["small-kernel"]
    shape, mode = spec["shape"], spec["mode"]
    x = random_tensor(shape, seed=3)
    u = np.random.default_rng(4).standard_normal((J, shape[mode]))
    plan = default_plan(shape, mode, J, x.layout, degree=spec["degree"],
                        loop_threads=p_l, kernel_threads=p_c, kernel="blas")
    fn = compile_plan(plan)
    out = DenseTensor.empty(plan.out_shape, x.layout)
    benchmark.pedantic(
        lambda: fn(x.data, u, out.data), rounds=3, iterations=1,
        warmup_rounds=1,
    )


@pytest.mark.parametrize("case", list(CASES))
def test_ablation_all_allocations_correct(case):
    spec = CASES[case]
    shape, mode = spec["shape"], spec["mode"]
    x = random_tensor(shape, seed=3)
    u = np.random.default_rng(4).standard_normal((J, shape[mode]))
    expect = ttm_oracle(x.data, u, mode)
    for _label, rate, out in run_case(case):
        assert rate > 0
        assert np.allclose(out.data, expect)


def main():
    print_header(
        f"Ablation - thread allocation (P_L vs P_C) at {THREADS} threads, J=16"
    )
    if THREADS == 1:
        print("skipped: os.cpu_count() is 1, so there is no thread split to time")
        return
    for name in CASES:
        print(f"{name} ({CASES[name]['shape']}, mode {CASES[name]['mode']}):")
        rows = [
            [label, f"{rate:7.2f}"] for label, rate, _out in run_case(name)
        ]
        print_series(["allocation", "GFLOP/s"], rows)


if __name__ == "__main__":
    main()
