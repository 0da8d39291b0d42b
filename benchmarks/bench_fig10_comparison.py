"""Figure 10: InTTM vs Tensor Toolbox vs CTF vs pure GEMM.

Paper claim (the headline result): on mode-2 products over 3rd/4th/5th-
order tensors, INTENSLI's InTTM achieves about **4x** the Tensor
Toolbox's throughput and about **13x** CTF's, and matches (sometimes
exceeds) the pure-GEMM rate measured on a pre-matricized tensor with
transform costs excluded.

Reproduction: the same four bars per (order, size) —

* ``inttm``     — input-adaptive in-place TTM (this library's core);
* ``tt-ttm``    — Algorithm 1 with physical copies (Tensor Toolbox role);
* ``ctf``       — Algorithm 1 plus cyclic redistribution (CTF role);
* ``gemm-only`` — the GEMM of line 4 alone on a pre-unfolded operand.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    BASELINE_SIZE_GRID,
    DEFAULT_J,
    matrix_for,
    print_header,
    print_series,
    time_ttm,
)
from repro.baselines import ttm_copy, ttm_ctf_like
from repro.core import InTensLi
from repro.gemm import gemm
from repro.perf import blas_threads
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_tensor
from repro.tensor.unfold import unfold

MODE = 1  # paper's mode-2 product


def compare_case(lib: InTensLi, order: int, m: int, j: int = DEFAULT_J):
    shape = (m,) * order
    x = random_tensor(shape, seed=order * 10 + m)
    u = matrix_for(shape, MODE, j)
    plan = lib.plan(shape, MODE, j)
    out = DenseTensor.empty(plan.out_shape, x.layout)
    _, r_inttm = time_ttm(lambda: lib.ttm(x, u, MODE, out=out), shape, j)
    _, r_tt = time_ttm(lambda: ttm_copy(x, u, MODE), shape, j)
    _, r_ctf = time_ttm(lambda: ttm_ctf_like(x, u, MODE), shape, j)
    # GEMM-only: line 4 of Algorithm 1 with the unfolding done beforehand.
    x_mat = unfold(x, MODE)
    y_mat = np.empty((j, x_mat.shape[1]))
    _, r_gemm = time_ttm(
        lambda: gemm(u, x_mat, out=y_mat, kernel="blas"), shape, j
    )
    return {
        "shape": shape,
        "inttm": r_inttm,
        "tt": r_tt,
        "ctf": r_ctf,
        "gemm": r_gemm,
    }


def sweep(lib, orders=(3, 4, 5)):
    return [
        compare_case(lib, order, m)
        for order in orders
        for m in BASELINE_SIZE_GRID[order]
    ]


# -- pytest-benchmark targets --------------------------------------------------


@pytest.mark.parametrize("method", ["inttm", "tt-ttm", "ctf", "gemm-only"])
def test_fig10_methods_order3(benchmark, method):
    lib = InTensLi()
    shape = (96, 96, 96)
    x = random_tensor(shape, seed=0)
    u = matrix_for(shape, MODE)
    if method == "inttm":
        plan = lib.plan(shape, MODE, DEFAULT_J)
        out = DenseTensor.empty(plan.out_shape, x.layout)
        fn = lambda: lib.ttm(x, u, MODE, out=out)
    elif method == "tt-ttm":
        fn = lambda: ttm_copy(x, u, MODE)
    elif method == "ctf":
        fn = lambda: ttm_ctf_like(x, u, MODE)
    else:
        x_mat = unfold(x, MODE)
        y_mat = np.empty((DEFAULT_J, x_mat.shape[1]))
        fn = lambda: gemm(u, x_mat, out=y_mat, kernel="blas")
    benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=1)
    flops = 2 * DEFAULT_J * 96**3
    benchmark.extra_info["gflops"] = round(
        flops / benchmark.stats["min"] / 1e9, 2
    )


def test_fig10_ordering_holds():
    """The paper's ordering: InTTM > TT-TTM > CTF, InTTM ~ GEMM-only.

    Every method gets the same thread budget: ``InTensLi()`` plans at
    ``max_threads=1``, so the BLAS pool is pinned to one thread too.
    Unpinned, GEMM-only's single large GEMM would run on every core.
    """
    lib = InTensLi()
    with blas_threads(1):
        case = compare_case(lib, 3, 96)
    assert case["inttm"] > case["tt"] > case["ctf"]
    assert case["inttm"] > 0.6 * case["gemm"]


def main():
    print_header(
        "Figure 10 - InTTM vs TT-TTM vs CTF vs pure GEMM "
        "(mode-2 product, J=16)"
    )
    lib = InTensLi()
    rows = []
    speedups_tt, speedups_ctf = [], []
    for case in sweep(lib):
        s_tt = case["inttm"] / case["tt"]
        s_ctf = case["inttm"] / case["ctf"]
        speedups_tt.append(s_tt)
        speedups_ctf.append(s_ctf)
        rows.append(
            [
                "x".join(map(str, case["shape"])),
                f"{case['inttm']:7.2f}",
                f"{case['tt']:7.2f}",
                f"{case['ctf']:7.2f}",
                f"{case['gemm']:7.2f}",
                f"{s_tt:5.2f}x",
                f"{s_ctf:5.2f}x",
            ]
        )
    print_series(
        ["shape", "inttm", "tt-ttm", "ctf", "gemm-only",
         "vs tt", "vs ctf"],
        rows,
    )
    import statistics

    print(
        f"geometric-mean speedups: vs Tensor Toolbox "
        f"{statistics.geometric_mean(speedups_tt):.2f}x (paper ~4x), "
        f"vs CTF {statistics.geometric_mean(speedups_ctf):.2f}x (paper ~13x)"
    )


if __name__ == "__main__":
    main()
