"""Figure 12: the heuristic configuration vs exhaustive search.

Paper claim: for a mode-1 product on 5th-order tensors there are 16
candidate configurations; INTENSLI's heuristics pick one without search,
and its performance is near the exhaustive-search optimum.

Reproduction: for a sweep of order-5 tensors, enumerate the same
configuration space (degrees x thread splits x kernels), time every
candidate (:class:`repro.core.tuner.ExhaustiveTuner`), and compare the
estimator's predicted plan against the best found.  The predicted plan
is priced from the same sweep, so a size where the estimator picks the
best plan reads exactly 100%; only a plan outside the swept space is
timed separately, by the tuner's own harness.

A second suite covers leading-mode products — the contracted mode is
the unit-stride mode (row-major last mode, column-major mode 0) — at
J=16 on ttm-small's cubes, 128^3, 48^4, 16^6 and 256x256x64 (each
shape reversed in column-major, so both layouts contract the same
problem).  There the degree-(N-1) plan is one contiguous GEMM and every
smaller degree a batched matmul over transposed views.

The exported ``fig12_regret`` series is the estimator's regret per
suite: the geometric mean over the sizes of best / predicted rate
(1.00 = always optimal).  ``check_regression.py`` gates it — it may not
rise.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np
import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import print_header, print_series
from repro.util.formatting import format_table
from repro.core import ExhaustiveTuner, InTensLi
from repro.core.codegen import generate_source
from repro.core.tuner import enumerate_plans
from repro.perf.flops import gflops_rate
from repro.tensor.dense import DenseTensor
from repro.tensor.generate import random_tensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR, leading_mode

MODE = 0  # the paper's mode-1 product
J = 16
SIDES = (8, 10, 12, 14, 16)

#: Leading-mode suite shapes, as row-major; column-major reverses each.
LEADING_SHAPES = tuple((n,) * 3 for n in range(8, 33, 4)) + (
    (128,) * 3, (48,) * 4, (16,) * 6, (256, 256, 64),
)


def leading_cases():
    """(shape, mode, layout) of every leading-mode suite product."""
    for shape in LEADING_SHAPES:
        for layout, dims in ((ROW_MAJOR, shape), (COL_MAJOR, shape[::-1])):
            yield dims, leading_mode(len(dims), layout), layout


def predicted_vs_best(shape, mode: int = MODE, j: int = J,
                      layout=ROW_MAJOR):
    x = random_tensor(shape, layout, seed=shape[0])
    u = np.random.default_rng(1).standard_normal((j, shape[mode]))
    predicted = InTensLi().plan(shape, mode, j, layout)
    tuner = ExhaustiveTuner(min_seconds=0.05, min_repeats=2)
    result = tuner.sweep(x, u, mode, max_threads=1, kernels=("blas",))
    try:
        pred_rate = result.gflops_of(predicted)
    except ValueError:  # predicted plan outside the swept space
        pred_rate = gflops_rate(
            result.flops, tuner.time_plan(predicted, x, u)
        )
    return {
        "shape": shape,
        "predicted_rate": pred_rate,
        "best_rate": result.best_gflops,
        "n_configs": len(result.plans),
        "predicted_plan": predicted,
        "best_plan": result.best_plan,
    }


# -- pytest-benchmark targets --------------------------------------------------


def test_fig12_config_space_matches_paper():
    plans = enumerate_plans(
        (10,) * 5, MODE, J, max_threads=8, kernels=("blas", "blocked")
    )
    assert len(plans) == 16  # the paper's count for this input


@pytest.mark.parametrize("side", [10])
def test_fig12_predicted_plan(benchmark, side):
    shape = (side,) * 5
    x = random_tensor(shape, seed=side)
    u = np.random.default_rng(1).standard_normal((J, side))
    lib = InTensLi()
    plan = lib.plan(shape, MODE, J)
    out = DenseTensor.empty(plan.out_shape, x.layout)
    benchmark.pedantic(
        lambda: lib.execute(plan, x, u, out=out), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["plan"] = plan.describe()


def test_fig12_heuristic_is_near_optimal():
    case = predicted_vs_best((10,) * 5)
    # "Near-optimal": within 40% of the exhaustive best on this noisy box
    # (the paper's bars are within a few percent on dedicated hardware).
    assert case["predicted_rate"] > 0.6 * case["best_rate"]


@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
def test_leading_mode_plan_has_no_batch_transposes(layout):
    """A leading-mode product runs as one contiguous GEMM: its generated
    code reshapes the operands in place and transposes no batch view."""
    plan = InTensLi().plan((24,) * 3, leading_mode(3, layout), J, layout)
    assert ".transpose" not in generate_source(plan)


def _suite(label, cases):
    """Per-case detail rows and the suite's regret row."""
    rows = []
    log_regret = 0.0
    for shape, mode, layout in cases:
        case = predicted_vs_best(shape, mode, J, layout)
        ratio = case["predicted_rate"] / case["best_rate"]
        log_regret -= math.log(ratio)
        rows.append(
            [
                "x".join(map(str, shape)),
                f"{mode} {layout.name[:3]}",
                case["n_configs"],
                f"{case['predicted_rate']:7.2f}",
                f"{case['best_rate']:7.2f}",
                f"{ratio * 100:5.1f}%",
                f"d={case['predicted_plan'].degree}",
                f"d={case['best_plan'].degree}",
            ]
        )
    # Per-size rates jitter too much to gate; the detail table is context.
    print(format_table(
        ["size", "mode", "#configs", "predicted", "best", "pred/best",
         "pred plan", "best plan"],
        rows,
    ))
    print()
    return [label, len(rows), f"{math.exp(log_regret / len(rows)):.2f}"]


def main():
    print_header(
        "Figure 12 - predicted configuration vs exhaustive search "
        "(mode-1 product on 5th-order tensors; leading-mode products; J=16)"
    )
    suites = [
        _suite("order5-J16", [((side,) * 5, MODE, ROW_MAJOR)
                              for side in SIDES]),
        _suite("leading-J16", leading_cases()),
    ]
    # Both rates come from one sweep on one host, so the ratio transfers
    # across machines the way the speedup columns do.
    print_series(
        ["suite", "sizes", "regret"],
        suites,
        export_name="fig12_regret",
    )
    print("regret = geometric mean of best / predicted rate (1.00 = optimal).")
    print("Paper: the heuristic choice is near the exhaustive optimum.")


if __name__ == "__main__":
    main()
