"""Ablation: the model-refinement pass added to the paper's heuristic.

The paper's estimator picks the degree purely from the MSTH/MLTH
working-set window — sound when the generated code is C++ and loop
iterations cost nanoseconds.  This reproduction generates Python, where
each loop iteration carries microseconds of dispatch, so the estimator
adds a refinement pass (`ParameterEstimator(refine_with_model=True)`,
the default) that re-prices every legal degree with the throughput model
(same MM benchmark) including the loop-overhead term.

This ablation measures both estimator variants on a workload of TTM
signatures and reports the end-to-end speedup attributable to the
refinement.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import print_header, print_series
from repro.core import InTensLi
from repro.core.estimator import ParameterEstimator
from repro.gemm.bench import default_shape_grid, measure_profile
from repro.perf.flops import gflops_rate, ttm_flops
from repro.perf.timing import time_callable
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_tensor

WORKLOAD = [
    ((80, 80, 80, 80), 0, 16),
    ((80, 80, 80, 80), 1, 16),
    ((128, 64, 32), 0, 16),
    ((16, 16, 16, 16, 16), 1, 8),
]


def measured_profile():
    grid = default_shape_grid(
        m_values=(16,), k_exponents=range(5, 11), n_exponents=range(5, 12)
    )
    return measure_profile(grid, threads=(1,), min_seconds=0.01)


def run_workload(refine: bool, profile):
    estimator = ParameterEstimator(
        profile=profile, max_threads=1, refine_with_model=refine
    )
    lib = InTensLi(profile=profile)
    lib.estimator = estimator
    rows = []
    for shape, mode, j in WORKLOAD:
        x = random_tensor(shape, seed=1)
        u = np.random.default_rng(2).standard_normal((j, shape[mode]))
        plan = lib.plan(shape, mode, j)
        out = DenseTensor.empty(plan.out_shape, x.layout)
        seconds = time_callable(
            lambda: lib.execute(plan, x, u, out=out),
            min_repeats=2, min_seconds=0.05,
        )
        rows.append((shape, mode, plan.degree, seconds,
                     gflops_rate(ttm_flops(shape, j), seconds)))
    return rows


# -- pytest-benchmark targets --------------------------------------------------


@pytest.mark.parametrize("refine", [False, True])
def test_ablation_estimator_variants(benchmark, refine):
    profile = measured_profile()
    estimator = ParameterEstimator(
        profile=profile, max_threads=1, refine_with_model=refine
    )
    shape, mode, j = (64, 64, 64, 64), 0, 16
    plan = estimator.estimate(shape, mode, j)
    lib = InTensLi(profile=profile)
    x = random_tensor(shape, seed=1)
    u = np.random.default_rng(2).standard_normal((j, shape[mode]))
    out = DenseTensor.empty(plan.out_shape, x.layout)
    benchmark.pedantic(
        lambda: lib.execute(plan, x, u, out=out), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["degree"] = plan.degree


def test_ablation_refinement_never_chooses_worse_predicted_plan():
    from repro.core.predict import predict_gflops

    profile = measured_profile()
    base = ParameterEstimator(profile=profile, max_threads=1,
                              refine_with_model=False)
    refined = ParameterEstimator(profile=profile, max_threads=1,
                                 refine_with_model=True)
    for shape, mode, j in WORKLOAD:
        p_base = base.estimate(shape, mode, j)
        p_ref = refined.estimate(shape, mode, j)
        assert predict_gflops(p_ref, profile) >= predict_gflops(
            p_base, profile
        ) * 0.999


def main():
    print_header(
        "Ablation - threshold-only estimator (paper rule) vs "
        "model-refined (this reproduction's default)"
    )
    profile = measured_profile()
    base_rows = run_workload(refine=False, profile=profile)
    refined_rows = run_workload(refine=True, profile=profile)
    table = []
    total_base = total_refined = 0.0
    for (shape, mode, d_b, s_b, r_b), (_s2, _m2, d_r, s_r, r_r) in zip(
        base_rows, refined_rows
    ):
        total_base += s_b
        total_refined += s_r
        table.append(
            [
                "x".join(map(str, shape)),
                mode,
                f"d={d_b}: {r_b:6.2f}",
                f"d={d_r}: {r_r:6.2f}",
                f"{s_b / s_r:5.2f}x",
            ]
        )
    print_series(
        ["shape", "mode", "threshold-only GFLOP/s", "refined GFLOP/s",
         "speedup"],
        table,
    )
    print(
        f"workload total: {total_base * 1e3:.0f} ms -> "
        f"{total_refined * 1e3:.0f} ms "
        f"({total_base / total_refined:.2f}x) with the refinement."
    )
    print(
        "The refinement exists because Python loop iterations cost "
        "microseconds; with compiled generated code (the paper's C++) the "
        "two variants coincide."
    )


if __name__ == "__main__":
    main()
