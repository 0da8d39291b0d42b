"""Fused TTM chains vs step-at-a-time: the whole-chain planning payoff.

The fused executor (:func:`repro.core.chain.execute_chain`) plans an
N-step chain once — order, per-step plans, ping-pong buffer schedule —
and then reuses two scratch buffers across every execution.  The
step-at-a-time path runs each product as its own ``ttm_inplace(x, u,
mode)`` call (a memoized plan lookup) into a fresh intermediate.  This
benchmark times both on the same chains, each side the median of
interleaved rounds (``benchmarks.common.median_seconds``), and reports:

* ``speedup fused`` — fused vs step-at-a-time *in the same order*: the
  buffer-reuse + pre-built-plan win;
* ``speedup order`` — fused vs step-at-a-time *in the written order*:
  the end-to-end win including the planner's reordering;
* per-pass intermediate allocation counts (fused: 0 once the pool is
  warm, <= 2 cold; step-at-a-time: one per step).

Run as a script for the full table, or ``--quick`` for the small grid
the bench-regression workflow gates on.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    median_seconds,
    print_header,
    print_series,
    run_main,
)
from repro.core.chain import (
    ChainStep,
    ScratchPool,
    chain_flops,
    execute_chain,
    plan_chain,
    ttm_chain,
)
from repro.core.inttm import ttm_inplace
from repro.perf.flops import gflops_rate
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_tensor

#: (shape, J per mode) chains.  The first two come from the
#: DEFAULT_CASES geometry grid (tests/helpers.TTM_CASES); the larger
#: ones exercise the regime where intermediates stop fitting in cache.
FULL_CASES = [
    ((3, 4, 5), 2),
    ((4, 4, 4, 4), 3),
    ((24, 24, 24), 8),
    ((64, 64, 64), 16),
    ((40, 40, 40, 40), 8),
    ((16, 16, 16, 16, 16), 4),
    ((8, 8, 8), 32),  # expanding chain: the reconstruct direction
]

QUICK_CASES = [
    ((3, 4, 5), 2),
    ((4, 4, 4, 4), 3),
    ((24, 24, 24), 8),
    ((40, 40, 40, 40), 8),
]

MIN_SECONDS = 0.05


def build_chain(shape, j, seed=0):
    rng = np.random.default_rng(seed)
    x = random_tensor(shape, seed=seed)
    steps = [
        ChainStep(mode, rng.standard_normal((j, extent)))
        for mode, extent in enumerate(shape)
    ]
    return x, steps


def measure_chain(shape, j, min_seconds=MIN_SECONDS):
    x, steps = build_chain(shape, j)
    sig = [(s.mode, s.j) for s in steps]
    plan = plan_chain(shape, sig, x.layout, order="auto")
    pool = ScratchPool()
    out = DenseTensor.empty(plan.out_shape, x.layout)

    def fused():
        return execute_chain(x, steps, plan, out=out, pool=pool)

    def stepwise_same_order():
        return ttm_chain(x, steps, backend=ttm_inplace, order=plan.order)

    def stepwise_given():
        return ttm_chain(x, steps, backend=ttm_inplace, order="given")

    # Warm everything: plans, the scratch pool, the BLAS threads.
    reference = stepwise_given()
    assert np.allclose(fused().data, reference.data, atol=1e-9)
    cold_allocations = pool.allocations
    assert cold_allocations <= 2

    flops_auto = chain_flops(shape, steps, plan.order)
    flops_given = chain_flops(shape, steps)
    secs_fused, secs_same, secs_given = median_seconds(
        [fused, stepwise_same_order, stepwise_given], min_seconds=min_seconds
    )

    return {
        "shape": "x".join(str(s) for s in shape),
        "j": j,
        "steps": len(steps),
        "allocs_fused": cold_allocations,
        "allocs_stepwise": len(steps),
        "gflops_fused": gflops_rate(flops_auto, secs_fused),
        "gflops_stepwise": gflops_rate(flops_auto, secs_same),
        "gflops_given": gflops_rate(flops_given, secs_given),
        "speedup_fused": secs_same / secs_fused if secs_fused > 0 else float("inf"),
        "speedup_order": secs_given / secs_fused if secs_fused > 0 else float("inf"),
    }


def report(rows, title):
    print_series(
        ["chain", "J", "steps", "allocs fused", "allocs stepwise",
         "GF/s fused", "GF/s stepwise", "GF/s as-given",
         "speedup fused", "speedup order"],
        [
            (
                r["shape"], r["j"], r["steps"],
                f"{r['allocs_fused']} cold / 0 warm", r["allocs_stepwise"],
                f"{r['gflops_fused']:.2f}", f"{r['gflops_stepwise']:.2f}",
                f"{r['gflops_given']:.2f}",
                f"{r['speedup_fused']:.2f}x", f"{r['speedup_order']:.2f}x",
            )
            for r in rows
        ],
        export_name=title,
    )


# -- pytest targets ------------------------------------------------------------


@pytest.mark.parametrize("case", QUICK_CASES[:2])
def test_chain_paths_agree(case):
    """Smoke: fused and step-at-a-time produce identical numbers."""
    shape, j = case
    x, steps = build_chain(shape, j)
    fused = ttm_chain(x, steps, order="auto")
    stepwise = ttm_chain(x, steps, backend=ttm_inplace, order="auto")
    assert np.allclose(fused.data, stepwise.data, atol=1e-9)


def test_chain_fused_reuses_buffers(benchmark=None):
    shape, j = QUICK_CASES[1]
    x, steps = build_chain(shape, j)
    sig = [(s.mode, s.j) for s in steps]
    plan = plan_chain(shape, sig, x.layout, order="auto")
    pool = ScratchPool()
    execute_chain(x, steps, plan, pool=pool)
    assert pool.allocations <= 2
    execute_chain(x, steps, plan, pool=pool)
    assert pool.allocations <= 2  # warm pool: no new buffers


# -- script entry --------------------------------------------------------------


def main() -> int:
    quick = "--quick" in sys.argv
    print_header(
        "Fused TTM chains: whole-chain planning + ping-pong scratch reuse "
        "vs per-step plan-and-allocate"
    )
    if quick:
        print("[quick] regression-gate grid only\n")
        report([measure_chain(*case) for case in QUICK_CASES],
               "ttm_chain_quick")
        return 0
    report([measure_chain(*case) for case in FULL_CASES], "ttm_chain")
    print(
        "speedup fused isolates buffer reuse and pre-built plans (same "
        "execution order); speedup order adds the planner's reordering "
        "of the chain."
    )
    return 0


if __name__ == "__main__":
    run_main(main)
