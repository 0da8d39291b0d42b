"""Batched vs. per-iteration InTTM: the interpreter-overhead ablation.

A batched plan's generated code fuses the innermost stackable run of
loop modes into one rank-3 ``np.matmul`` per outer index, so a plan that
would pay one Python-level GEMM dispatch per ``M_L`` iteration pays one
per *outer* iteration instead.  This benchmark measures that reduction
directly: for each Figure-9 sweep shape (plus small-``I_n``/many-loop
shapes where interpreter overhead dominates) it times the same plan with
batching on and off and reports the GEMM-dispatch counts from the
hot-path counters — the speedup should track the dispatch reduction in
the overhead-dominated regime and approach 1x where the kernels are
large enough to hide the interpreter.  An unbatched plan always runs
its per-index nest, so every row reads ``B`` times more dispatches on
the looped side, even where the batched side collapses whole.

Run as a script for the full table, or under pytest for a smoke check:
``python benchmarks/bench_batched_inttm.py [--quick]``.
"""

from __future__ import annotations

import os
import sys

import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    DEFAULT_J,
    ORDER_SIZE_GRID,
    matrix_for,
    median_seconds,
    print_header,
    print_series,
    run_main,
)
from repro.core.inttm import default_plan, ttm_inplace
from repro.perf.flops import gflops_rate, ttm_flops
from repro.perf.profiler import track_hot_path
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_tensor

MODE = 1  # the paper's mode-2 product

#: Shapes where the inner kernel is small and M_L is large — the regime
#: the batched engine exists for.  (shape, mode, J, degree)
OVERHEAD_CASES = [
    ((32, 32, 32, 8), 1, 8, 1),
    ((24, 24, 24, 24), 2, 8, 1),
    ((16, 16, 16, 16, 4), 2, 4, 1),
    ((64, 8, 64, 4), 1, 4, 1),
]

QUICK_CASES = [
    ((8, 8, 8, 4), 1, 4, 1),
    ((6, 6, 6, 6), 2, 4, 1),
]


def measure_pair(shape, mode, j, degree=None):
    """(row) timing + dispatch counts for batched vs. looped execution.

    Each side is the median of interleaved timing windows
    (:func:`~benchmarks.common.median_seconds`), so the gated speedup
    does not swing with one lucky window.
    """
    x = random_tensor(shape, seed=sum(shape))
    u = matrix_for(shape, mode, j=j)
    batched = default_plan(shape, mode, j, x.layout, degree=degree)
    looped = default_plan(shape, mode, j, x.layout, degree=degree,
                          batched=False)
    out = DenseTensor.empty(batched.out_shape, x.layout)

    ttm_inplace(x, u, plan=looped, out=out)  # warm both paths up
    ttm_inplace(x, u, plan=batched, out=out)
    secs_l, secs_b = median_seconds(
        [
            lambda: ttm_inplace(x, u, plan=looped, out=out),
            lambda: ttm_inplace(x, u, plan=batched, out=out),
        ],
        min_repeats=2, min_seconds=0.05,
    )
    flops = ttm_flops(shape, j)
    with track_hot_path() as c_l:
        ttm_inplace(x, u, plan=looped, out=out)
    with track_hot_path() as c_b:
        ttm_inplace(x, u, plan=batched, out=out)
    return {
        "shape": "x".join(str(s) for s in shape),
        "mode": mode,
        "j": j,
        "batch": batched.batch_extent,
        "dispatch_looped": c_l.dispatches,
        "dispatch_batched": c_b.dispatches,
        "gflops_looped": gflops_rate(flops, secs_l),
        "gflops_batched": gflops_rate(flops, secs_b),
        "speedup": secs_l / secs_b if secs_b > 0 else float("inf"),
    }


def sweep(cases):
    return [measure_pair(*case) for case in cases]


def fig9_cases(orders=(3, 4, 5)):
    """The Figure-9 sweep shapes, run at a modest fixed degree so a loop
    nest actually exists (the maximal merge would leave nothing to batch)."""
    cases = []
    for order in orders:
        for m in ORDER_SIZE_GRID[order][:3]:
            cases.append(((m,) * order, MODE, DEFAULT_J, 1))
    return cases


def report(rows, title):
    print_series(
        ["shape", "mode", "J", "B", "disp looped", "disp batched",
         "GF/s looped", "GF/s batched", "speedup"],
        [
            (
                r["shape"], r["mode"], r["j"], r["batch"],
                r["dispatch_looped"], r["dispatch_batched"],
                f"{r['gflops_looped']:.2f}", f"{r['gflops_batched']:.2f}",
                f"{r['speedup']:.2f}x",
            )
            for r in rows
        ],
        export_name=title,
    )


# -- pytest targets ------------------------------------------------------------


@pytest.mark.parametrize("case", QUICK_CASES)
def test_batched_smoke(case):
    """Tiny-shape smoke: batching divides dispatches by the batch extent."""
    row = measure_pair(*case)
    assert row["dispatch_looped"] == row["dispatch_batched"] * row["batch"]


# -- script entry --------------------------------------------------------------


def main() -> int:
    quick = "--quick" in sys.argv
    print_header(
        "Batched InTTM ablation: fused batch runs vs. per-iteration dispatch"
    )
    if quick:
        print("[quick] tiny smoke shapes only\n")
        report(sweep(QUICK_CASES), "batched_inttm_quick")
        return 0
    print("Interpreter-overhead regime (small kernels, large M_L):\n")
    report(sweep(OVERHEAD_CASES), "batched_inttm_overhead")
    print("Figure-9 sweep shapes (degree 1):\n")
    report(sweep(fig9_cases()), "batched_inttm_fig9")
    return 0


if __name__ == "__main__":
    run_main(main)
