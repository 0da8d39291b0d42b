"""One plan builder: every planner's plans are ``default_plan``'s.

The estimator (threshold plan and refine candidates), the exhaustive
tuner and the standalone planners all build their :class:`TtmPlan` s
through :func:`repro.core.inttm.default_plan`, so they agree on the nest
order and reject bad input with the same typed errors.
"""

import numpy as np
import pytest

from repro.core.chain import plan_chain
from repro.core.intensli import InTensLi
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.tiling import explain_tiling, ttm_stream_collect, ttm_tiled
from repro.core.tuner import enumerate_plans
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    guard_memory,
    plan_footprint_bytes,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import DEFAULT_CASES, DEGENERATE_CASES
from repro.util.errors import DtypeError, ShapeError

CASES = DEFAULT_CASES + DEGENERATE_CASES


def _storage_monotone(plan) -> bool:
    loops = list(plan.loop_modes)
    if plan.layout is COL_MAJOR:
        loops.reverse()
    return all(a < b for a, b in zip(loops, loops[1:]))


@pytest.mark.parametrize("threads", [1, 4])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
def test_planners_agree_with_default_plan(layout, dtype, threads):
    lib = InTensLi(max_threads=threads)
    for shape, j, mode in CASES:
        candidates = enumerate_plans(
            shape, mode, j, layout, threads, kernels=("blas", "blocked"),
            dtype=dtype,
        )
        estimated = lib.plan(shape, mode, j, layout, dtype=dtype)
        for plan in candidates + [estimated]:
            assert plan == default_plan(
                shape, mode, j, layout,
                loop_threads=plan.loop_threads,
                kernel_threads=plan.kernel_threads,
                kernel=plan.kernel,
                degree=plan.degree,
                dtype=dtype,
            ), plan.describe()
            assert _storage_monotone(plan), plan.describe()


def test_guard_replan_keeps_the_estimator_nest_order(monkeypatch):
    shape, mode, j = (6, 7, 8, 9, 5), 2, 4
    plan = InTensLi().plan(shape, mode, j, COL_MAJOR)
    lower = default_plan(shape, mode, j, COL_MAJOR, degree=plan.degree - 1)
    monkeypatch.setenv(
        MEM_LIMIT_ENV, str(plan_footprint_bytes(lower, allocate_out=True))
    )
    replan = guard_memory(plan, allow_replan=True)
    assert replan == lower and len(replan.loop_modes) == 3
    assert replan.loop_modes == tuple(sorted(replan.loop_modes, reverse=True))


ENTRY_POINTS = {
    "default_plan": lambda shape: default_plan(shape, 0, 2, ROW_MAJOR),
    "enumerate_plans": lambda shape: enumerate_plans(shape, 0, 2),
    "explain_tiling": lambda shape: explain_tiling(shape, 0, 2, budget=10),
    "plan_chain": lambda shape: plan_chain(shape, [(0, 2)]),
    "InTensLi.plan": lambda shape: InTensLi().plan(shape, 0, 2),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize(
    "shape, error",
    [((4, -1, 3), ShapeError), ((4, 2.5), TypeError), ((4, True), TypeError)],
    ids=["negative", "float", "bool"],
)
def test_bad_extents_raise_the_same_typed_error(entry, shape, error):
    with pytest.raises(error):
        ENTRY_POINTS[entry](shape)


@pytest.mark.parametrize("dtype", ["f4", np.float32, np.dtype("float32")])
def test_enumerate_plans_accepts_any_dtype_spelling(dtype):
    plans = enumerate_plans((4, 5, 6), 1, 2, dtype=dtype)
    assert plans and all(p.dtype == "float32" for p in plans)


def test_enumerate_plans_rejects_unsupported_dtype_like_every_planner():
    for plan_it in (
        lambda: enumerate_plans((4, 5, 6), 1, 2, dtype="int32"),
        lambda: default_plan((4, 5, 6), 1, 2, ROW_MAJOR, dtype="int32"),
        lambda: InTensLi().plan((4, 5, 6), 1, 2, dtype="int32"),
    ):
        with pytest.raises(DtypeError):
            plan_it()


def _standalone_entries():
    """Each standalone entry as ``call(mode, j)`` on one small input
    (only ``explain_tiling`` takes J; the others read it from U)."""
    x = DenseTensor(np.arange(60.0).reshape(3, 4, 5), ROW_MAJOR)
    u = np.ones((2, 4))
    return {
        "ttm_inplace(mode=)": lambda mode, j: ttm_inplace(x, u, mode),
        "ttm_tiled": lambda mode, j: ttm_tiled(x, u, mode, budget=1 << 20),
        "ttm_stream_collect": lambda mode, j: ttm_stream_collect(
            [x.data[:1], x.data[1:]], u, mode
        ),
        "explain_tiling": lambda mode, j: explain_tiling(
            x.shape, mode, j, budget=1 << 20
        ),
    }


@pytest.mark.parametrize(
    "entry, bad",
    [
        pytest.param(name, (True, 2), id=f"{name}-mode")
        for name in sorted(_standalone_entries())
    ]
    + [pytest.param("explain_tiling", (1, True), id="explain_tiling-j")],
)
def test_a_warm_memo_rejects_bool_mode_and_j(entry, bad):
    """``True == 1``: a memo keyed by value alone lets a warm bool through."""
    call = _standalone_entries()[entry]
    with pytest.raises(TypeError):
        call(*bad)  # cold
    call(*(1 if arg is True else arg for arg in bad))  # warms the memo
    with pytest.raises(TypeError):
        call(*bad)  # warm
