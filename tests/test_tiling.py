"""The out-of-core tiling layer: planner, tiled executor, streaming API.

Three invariants anchor this module:

1. **Exactness** — a tiled TTM partitions the non-contracted index space,
   so tiled == untiled == the equation-(1) oracle bit-for-bit in shape
   and allclose in value, for every geometry, layout, and dtype.
2. **Boundedness** — per-tile transient allocations (kernel working set
   plus any packing scratch) never exceed the budget the planner was
   given; measured through the fault injector's passive ``observe`` log,
   not by monkeypatching NumPy.
3. **Determinism** — the tiling decision for a signature is a pure
   function of (shape, mode, J, layout, dtype, budget); the golden
   fixture ``tests/golden/tiling_plans.json`` pins it (regenerate with
   ``--regen-golden`` when a change is intentional).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.codegen import _batch_views
from repro.core.intensli import InTensLi
from repro.core.inttm import _default_planner, default_plan
from repro.core.plan import Strategy
from repro.core.tiling import (
    TilingPlan,
    TilingPlanner,
    execute_tiled,
    explain_tiling,
    runs_in_place,
    tiling_opportunity,
    ttm_stream,
    ttm_stream_collect,
    ttm_tiled,
)
from repro.obs.tracer import tracing
from repro.perf.profiler import track_hot_path
from repro.resilience import fault_injection
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    pinned_budget,
    plan_footprint_bytes,
)
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR, element_strides
from repro.testing import (
    DEFAULT_CASES,
    DEGENERATE_CASES,
    DTYPE_TOLERANCES,
    ttm_reference,
)
from repro.util.errors import (
    DtypeError,
    LayoutError,
    ResourceError,
    ShapeError,
)
from tests.helpers import ttm_oracle

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiling_plans.json"

#: Byte budgets the golden fixture pins decisions at: one that forces
#: deep tiling on most of the grid, one most cases fit inside.
GOLDEN_BUDGETS = (2048, 32768)


def _case_arrays(shape, j, mode, layout=ROW_MAJOR, dtype="float64", seed=0):
    rng = np.random.default_rng(seed)
    x = DenseTensor(
        rng.standard_normal(shape).astype(dtype), layout, dtype=dtype
    )
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    return x, u


def _forced_tiling(shape, mode, j, layout, parts):
    """A :class:`TilingPlan` with a hand-picked cut and no budget."""
    return TilingPlan(
        shape=tuple(shape), mode=mode, j=j, layout=layout,
        dtype="float64", parts=tuple(parts), budget=None,
        base_footprint_bytes=0, tile_footprint_bytes=0, packed=False,
        reason="test-forced",
    )


def _min_tile_budget(shape, mode, j, layout, dtype="float64"):
    """The footprint of a maximally tiled cut — the smallest budget that
    is still tileable, so planning against it forces the deepest split."""
    base = default_plan(shape, mode, j, layout, dtype=dtype)
    parts = [1 if m == mode else max(1, e) for m, e in enumerate(shape)]
    foot, _ = TilingPlanner()._tile_footprint(base, parts)
    return foot


# -- the planner ---------------------------------------------------------------


def test_plan_is_trivial_when_budget_suffices():
    base = default_plan((6, 7, 8), 1, 4, ROW_MAJOR)
    for budget in (None, 1 << 30):
        tiling = TilingPlanner().plan(base, budget=budget)
        assert not tiling.tiled and tiling.n_tiles == 1
        assert tiling.reason == "fits-in-budget"
        assert tiling.parts == (1, 1, 1)


def test_plan_never_splits_the_contracted_mode():
    for mode in range(3):
        shape = (16, 16, 16)
        budget = _min_tile_budget(shape, mode, 4, ROW_MAJOR)
        base = default_plan(shape, mode, 4, ROW_MAJOR)
        tiling = TilingPlanner().plan(base, budget=budget,
                                      out_preallocated=True)
        assert tiling.parts[mode] == 1
        assert tiling.tiled


def test_plan_prefers_outermost_storage_mode():
    # When the contracted mode is the trailing one, the component window
    # spans the leading modes, so splitting the outermost storage mode
    # both shrinks the kernel working set AND keeps tiles contiguous
    # views — a gentle squeeze must stop there, never split inward.
    shape = (32, 16, 16)
    base = default_plan(shape, 2, 4, ROW_MAJOR)
    need = plan_footprint_bytes(base, allocate_out=False)
    tiling = TilingPlanner().plan(base, budget=need - 1,
                                  out_preallocated=True)
    assert tiling.tiled and not tiling.packed
    assert tiling.parts[0] > 1
    assert tiling.parts[1] == 1 and tiling.parts[2] == 1
    # Column-major mirrors: the outermost storage mode is the last axis.
    base_f = default_plan(shape, 0, 4, COL_MAJOR)
    need_f = plan_footprint_bytes(base_f, allocate_out=False)
    tiling_f = TilingPlanner().plan(base_f, budget=need_f - 1,
                                    out_preallocated=True)
    assert tiling_f.tiled and not tiling_f.packed
    assert tiling_f.parts[2] > 1
    assert tiling_f.parts[0] == 1 and tiling_f.parts[1] == 1


def test_plan_output_dominates_reason():
    # Transients fit; only the output allocation overflows the budget.
    shape = (8, 64, 64)
    base = default_plan(shape, 1, 32, ROW_MAJOR)
    transient = plan_footprint_bytes(base, allocate_out=False)
    total = plan_footprint_bytes(base, allocate_out=True)
    assert total > transient
    tiling = TilingPlanner().plan(base, budget=transient)
    assert not tiling.tiled
    assert tiling.reason == "output-dominates"


def test_untileable_budget_raises_typed_error():
    base = default_plan((8, 8, 8), 1, 4, ROW_MAJOR)
    with pytest.raises(ResourceError, match="cannot be tiled"):
        TilingPlanner().plan(base, budget=16, out_preallocated=True)


def test_tiles_partition_the_index_space():
    shape = (5, 6, 7)
    budget = _min_tile_budget(shape, 1, 3, ROW_MAJOR)
    base = default_plan(shape, 1, 3, ROW_MAJOR)
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    cover = np.zeros(shape, dtype=np.int64)
    for spec in tiling.tiles():
        cover[spec.in_slices] += 1
    assert (cover == 1).all(), "tiles must cover every index exactly once"
    assert sum(1 for _ in tiling.tiles()) == tiling.n_tiles


def _tile_runs_in_place(shape, mode, j, layout, tile_shape):
    """:func:`runs_in_place` for one tile shape of a contiguous parent."""
    plan = default_plan(tile_shape, mode, j, layout)
    out_shape = shape[:mode] + (j,) + shape[mode + 1:]
    return runs_in_place(plan, element_strides(shape, layout),
                         element_strides(out_shape, layout))


def test_runs_in_place_predicate():
    shape = (8, 8, 8)
    # Row-major mode 1: M_C = (2,); any split outside the run is a view.
    assert _tile_runs_in_place(shape, 1, 4, ROW_MAJOR, (4, 8, 8))
    assert _tile_runs_in_place(shape, 1, 4, ROW_MAJOR, (8, 8, 4))
    # Row-major mode 0: M_C = (1, 2).  A split on the run's outermost
    # mode keeps it nesting; a split inside it does not.
    assert _tile_runs_in_place(shape, 0, 4, ROW_MAJOR, (8, 4, 8))
    assert not _tile_runs_in_place(shape, 0, 4, ROW_MAJOR, (8, 8, 4))
    # ... unless the inner mode is cut to single elements (stride-free).
    assert _tile_runs_in_place(shape, 0, 4, ROW_MAJOR, (8, 8, 1))
    # Column-major mirrors: mode 2 merges M_C = (0, 1), outermost is 1.
    assert _tile_runs_in_place(shape, 2, 4, COL_MAJOR, (8, 4, 8))
    assert not _tile_runs_in_place(shape, 2, 4, COL_MAJOR, (4, 8, 8))
    assert _tile_runs_in_place(shape, 0, 4, ROW_MAJOR, shape)  # no split


def _kernel_views(plan, x, y):
    """Every view a compiled *plan* and its degrade tiers build from the
    operands: the batched shape's hoisted views and the per-iteration
    nest's 2-D views (at loop index 0)."""
    x3, y3 = _batch_views(plan)
    views = [(eval(x3, {"x": x}), x), (eval(y3, {"y": y}), y)]
    order = "F" if plan.layout is COL_MAJOR else "C"
    sub = tuple(0 if m in plan.loop_modes else slice(None)
                for m in range(plan.order))
    p = plan.component_extent
    if plan.degree == 0:
        shapes = ((plan.i_n, 1), (plan.j, 1))
    elif plan.strategy is Strategy.FORWARD:
        shapes = ((plan.i_n, p), (plan.j, p))
    else:
        shapes = ((p, plan.i_n), (p, plan.j))
    views.append((x[sub].reshape(shapes[0], order=order), x))
    views.append((y[sub].reshape(shapes[1], order=order), y))
    return views


def _tilings_to_check(shape, mode, j, layout):
    """The planner's cut at each golden budget and at the deepest one,
    plus a forced two-way split of every non-contracted axis."""
    base = default_plan(shape, mode, j, layout)
    budgets = GOLDEN_BUDGETS + (_min_tile_budget(shape, mode, j, layout),)
    for budget in budgets:
        try:
            yield TilingPlanner().plan(base, budget=budget,
                                       out_preallocated=True)
        except ResourceError:
            continue
    for axis in range(len(shape)):
        if axis != mode and shape[axis] > 1:
            parts = tuple(2 if a == axis else 1 for a in range(len(shape)))
            yield _forced_tiling(shape, mode, j, layout, parts)


@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
def test_in_place_tiles_reshape_to_views(layout):
    """Lemma 4.1, checked: a tile the predicate passes reshapes to every
    view its plan (and each degrade tier) builds without a copy, and a
    tile it fails would be copied — and the planner's ``packed`` flag is
    exactly "some tile fails"."""
    failures = []
    for shape, j, mode in DEFAULT_CASES:
        x = np.zeros(shape, order="F" if layout is COL_MAJOR else "C")
        out_shape = shape[:mode] + (j,) + shape[mode + 1:]
        y = np.zeros(out_shape, order="F" if layout is COL_MAJOR else "C")
        for tiling in _tilings_to_check(shape, mode, j, layout):
            packs = False
            for spec in tiling.tiles():
                x_tile, y_tile = x[spec.in_slices], y[spec.out_slices]
                if not x_tile.size:
                    continue
                plan = _default_planner(x_tile.shape, mode, j, layout)
                passes = runs_in_place(
                    plan, element_strides(shape, layout),
                    element_strides(out_shape, layout),
                )
                packs = packs or not passes
                shared = all(np.shares_memory(view, base) for view, base
                             in _kernel_views(plan, x_tile, y_tile))
                if shared != passes:
                    failures.append(
                        f"{shape} m{mode} J{j} {layout.name} tile "
                        f"{spec.ranges}: predicate {passes}, views "
                        f"shared {shared}")
            if tiling.reason != "test-forced" and packs != tiling.packed:
                failures.append(f"{tiling.describe()}: packed flag "
                                f"{tiling.packed}, tiles pack {packs}")
    assert not failures, "\n".join(failures)


def test_tiling_opportunity_fast_path_and_engagement(monkeypatch):
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    plan = default_plan((4, 5, 6), 1, 3, ROW_MAJOR)
    # Small, in-memory, no cap: never probes, never engages.
    assert tiling_opportunity(plan) is None
    # A tight explicit cap engages and reports the budget.
    monkeypatch.setenv(MEM_LIMIT_ENV, "128")
    assert tiling_opportunity(plan) == 128
    # A preallocated output shrinks the need to kernel working sets only.
    monkeypatch.setenv(MEM_LIMIT_ENV, str(1 << 30))
    assert tiling_opportunity(plan, out_given=True) is None


# -- tiled execution vs the oracle ---------------------------------------------


@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_tiled_matches_untiled_and_oracle_everywhere(layout, dtype):
    """Invariant 1 over the full grid, at the deepest feasible tiling,
    degenerate shapes included: an empty contracted mode yields zeros."""
    rtol, atol = DTYPE_TOLERANCES[dtype]
    failures = []
    for shape, j, mode in DEFAULT_CASES + DEGENERATE_CASES:
        x, u = _case_arrays(shape, j, mode, layout, dtype)
        budget = _min_tile_budget(shape, mode, j, layout, dtype)
        out = DenseTensor.empty(
            shape[:mode] + (j,) + shape[mode + 1:], layout, dtype=dtype
        )
        got = ttm_tiled(x, u, mode, budget=budget, out=out)
        untiled = repro.ttm(x, u, mode)
        oracle = ttm_oracle(
            x.data.astype(np.float64), u.astype(np.float64), mode
        )
        label = f"shape={shape} J={j} mode={mode} {layout.name}/{dtype}"
        if not np.allclose(got.data.astype(np.float64), oracle,
                           rtol=rtol, atol=atol):
            failures.append(f"{label}: tiled != oracle")
        if not np.allclose(got.data, untiled.data, rtol=rtol, atol=atol):
            failures.append(f"{label}: tiled != untiled")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("mode,expect_packed", [(2, False), (0, False)])
def test_tiled_view_and_packed_paths(mode, expect_packed):
    # Row-major, mode 2: axis-0 tiles are views of X and Y and shrink
    # the backward kernel; mode 0: the cut falls on axis 1, the
    # outermost mode of the component run (1, 2), so the strided tiles
    # still run in place (Lemma 4.1) with no staging copies.
    shape, j = (12, 10, 8), 4
    x, u = _case_arrays(shape, j, mode)
    base = default_plan(shape, mode, j, ROW_MAJOR)
    budget = plan_footprint_bytes(base, allocate_out=False) // 2
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    assert tiling.packed is expect_packed
    out = DenseTensor.empty(tiling.out_shape, ROW_MAJOR)
    with track_hot_path() as counters:
        got = execute_tiled(x, u, tiling, out=out)
    np.testing.assert_allclose(
        got.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )
    assert counters.tiled_ttms == 1
    assert counters.tiles_executed == tiling.n_tiles
    assert (counters.tile_pack_bytes > 0) is expect_packed


def test_split_inside_a_merged_run_still_packs():
    # Mode 0 row-major merges M_C = (1, 2); cutting axis 2 breaks the
    # run's nesting, so every tile is staged through scratch.
    shape, j, mode = (12, 10, 8), 4, 0
    x, u = _case_arrays(shape, j, mode)
    tiling = _forced_tiling(shape, mode, j, ROW_MAJOR, (1, 1, 2))
    out = DenseTensor.empty(tiling.out_shape, ROW_MAJOR)
    with track_hot_path() as counters:
        got = execute_tiled(x, u, tiling, out=out)
    np.testing.assert_allclose(
        got.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )
    assert counters.tiles_executed == 2
    assert counters.tile_pack_bytes == 8 * (x.data.size + out.data.size)


@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
def test_in_place_strided_tile_degrades_and_matches_reference(layout):
    # Every tile's first kernel tier raises; the blocked tier runs on the
    # same strided views, and the result still lands in place.
    shape, j = (12, 10, 8), 4
    mode, parts = (0, (1, 2, 1)) if layout is ROW_MAJOR else (2, (1, 2, 1))
    x, u = _case_arrays(shape, j, mode, layout)
    tiling = _forced_tiling(shape, mode, j, layout, parts)
    out = DenseTensor.empty(tiling.out_shape, layout)
    with fault_injection() as faults, track_hot_path() as counters:
        faults.arm("kernel-raise", exc=MemoryError("no room"), times=2,
                   kernel="auto")
        got = execute_tiled(x, u, tiling, out=out)
    assert faults.count("kernel-raise") == 2
    assert counters.kernel_fallbacks == 2
    assert counters.tile_pack_bytes == 0
    np.testing.assert_allclose(
        got.data, ttm_reference(x.data, u, mode), rtol=1e-10, atol=1e-12
    )


def test_execute_tiled_validates_inputs():
    x, u = _case_arrays((6, 7, 8), 3, 1)
    base = default_plan((6, 7, 8), 1, 3, ROW_MAJOR)
    tiling = TilingPlanner().plan(base, budget=1 << 30)
    with pytest.raises(ShapeError, match="tiling is for"):
        execute_tiled(DenseTensor.zeros((6, 7, 9)), u, tiling)
    with pytest.raises(DtypeError, match="tiling is for dtype"):
        execute_tiled(
            DenseTensor.zeros((6, 7, 8), dtype="float32"), u, tiling
        )
    with pytest.raises(ShapeError, match="U shape"):
        execute_tiled(x, np.ones((3, 9)), tiling)
    with pytest.raises(ShapeError, match="out is"):
        execute_tiled(x, u, tiling, out=DenseTensor.zeros((6, 4, 8)))


def test_in_ram_output_refused_when_over_budget(tmp_path):
    # Budget below the output size and no disk destination: typed error.
    shape, j, mode = (8, 16, 16), 8, 1
    x, u = _case_arrays(shape, j, mode)
    budget = _min_tile_budget(shape, mode, j, ROW_MAJOR)
    base = default_plan(shape, mode, j, ROW_MAJOR)
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    out_bytes = 8 * 8 * j * 16
    assert out_bytes > budget
    with pytest.raises(ResourceError, match="out_path"):
        execute_tiled(x, u, tiling)
    # The same call lands on disk when given somewhere to write.
    y = execute_tiled(x, u, tiling, out_path=tmp_path / "y.npy")
    assert not y.is_inmem
    np.testing.assert_allclose(
        y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )


def test_tile_spans_annotate_the_trace():
    shape, j, mode = (8, 6, 6), 3, 1
    x, u = _case_arrays(shape, j, mode)
    budget = _min_tile_budget(shape, mode, j, ROW_MAJOR)
    with tracing() as tracer:
        out = DenseTensor.empty((8, 3, 6), ROW_MAJOR)
        ttm_tiled(x, u, mode, budget=budget, out=out)
    names = [s.name for s in tracer.collector.spans()]
    assert "tile-plan" in names
    assert names.count("tile-exec") >= 2
    plan_span = next(
        s for s in tracer.collector.spans() if s.name == "tile-plan"
    )
    assert plan_span.attrs["n_tiles"] >= 2


# -- the acceptance case: tensor larger than the budget ------------------------


def test_memmap_ttm_larger_than_budget_matches_oracle(tmp_path, monkeypatch):
    """ISSUE 8 acceptance: a mode-1 TTM over a memmap-backed tensor with
    nbytes far above $REPRO_MEM_LIMIT completes through the transparent
    facade path, matches the in-memory oracle, and never allocates a
    transient above the budget."""
    shape, j, mode = (32, 128, 512), 16, 1  # 16 MiB of float64
    budget = 512 << 10  # below even one slab's kernel working set
    monkeypatch.setenv(MEM_LIMIT_ENV, str(budget))
    x = open_memmap_tensor(tmp_path / "x.npy", "w+", shape=shape)
    rng = np.random.default_rng(7)
    for i in range(shape[0]):  # fill in slabs, never the whole array
        x.data[i] = rng.standard_normal(shape[1:])
    x.flush()
    assert x.nbytes > 16 * budget and not x.is_inmem
    u = rng.standard_normal((j, shape[mode]))
    # The output (2 MiB) exceeds the budget too, so it lives on disk.
    out = open_memmap_tensor(
        tmp_path / "y.npy", "w+", shape=(shape[0], j, shape[2])
    )

    with fault_injection() as faults, track_hot_path() as counters:
        y = repro.ttm(x, u, mode, out=out)

    assert counters.tiled_ttms == 1
    assert counters.tiles_executed > 1
    # Invariant 2: every instrumented transient stayed under the budget.
    for obs in faults.observations("alloc"):
        assert obs["pool_nbytes"] + obs["kernel_ws"] <= budget, obs
    oracle = ttm_oracle(np.asarray(x.data), u, mode)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-10, atol=1e-10)


def test_memmap_in_memmap_out_end_to_end(tmp_path, monkeypatch):
    # Disk to disk: neither operand nor result ever fully in RAM.
    shape, j, mode = (24, 64, 256), 48, 0
    budget = 512 << 10
    monkeypatch.setenv(MEM_LIMIT_ENV, str(budget))
    x = open_memmap_tensor(tmp_path / "x.npy", "w+", shape=shape)
    rng = np.random.default_rng(3)
    for i in range(shape[0]):
        x.data[i] = rng.standard_normal(shape[1:])
    x.flush()
    u = rng.standard_normal((j, shape[mode]))
    y = ttm_tiled(x, u, mode, out_path=tmp_path / "y.npy")
    assert not y.is_inmem
    assert y.shape == (j,) + shape[1:]
    reopened = open_memmap_tensor(tmp_path / "y.npy", "r")
    np.testing.assert_allclose(
        np.asarray(reopened.data),
        ttm_oracle(np.asarray(x.data), u, mode),
        rtol=1e-10, atol=1e-10,
    )


def test_facade_engagement_is_transparent_and_bounded(monkeypatch):
    # An in-RAM tensor whose kernel working set exceeds the cap engages
    # tiling inside InTensLi.ttm with no API change; the result is
    # still oracle-exact.
    shape, j, mode = (16, 64, 128), 8, 1
    x, u = _case_arrays(shape, j, mode)
    lib = InTensLi(max_threads=1)
    ws = plan_footprint_bytes(
        lib.plan(shape, mode, j, ROW_MAJOR), allocate_out=False
    )
    monkeypatch.setenv(MEM_LIMIT_ENV, str(ws // 2))
    out = DenseTensor.empty((16, j, 128), ROW_MAJOR)
    with track_hot_path() as counters:
        y = repro.ttm(x, u, mode, out=out)
    assert counters.tiled_ttms == 1
    assert y is out
    np.testing.assert_allclose(
        y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )


def test_chain_steps_tile_individually(monkeypatch):
    # InTensLi.ttm_chain runs each step through InTensLi.execute, so
    # per-step tiling engages with no chain-level wiring.
    shape = (12, 16, 20)
    rng = np.random.default_rng(5)
    x = DenseTensor(rng.standard_normal(shape))
    us = [rng.standard_normal((6, shape[1])), rng.standard_normal((5, shape[2]))]
    expect = ttm_oracle(ttm_oracle(x.data, us[0], 1), us[1], 2)
    lib = InTensLi(max_threads=1)
    # Budget below the widest executed step plan's working set — the step
    # plans come from plan_chain, not from fresh single-TTM planning.
    cp = lib.plan_chain(shape, [(1, 6), (2, 5)], ROW_MAJOR)
    budget = max(
        plan_footprint_bytes(p, allocate_out=False) for p in cp.step_plans
    ) - 1
    monkeypatch.setenv(MEM_LIMIT_ENV, str(budget))
    with track_hot_path() as counters:
        y = lib.ttm_chain(x, [(1, us[0]), (2, us[1])])
    assert counters.tiled_ttms >= 1
    np.testing.assert_allclose(y.data, expect, rtol=1e-10, atol=1e-12)


# -- hypothesis fuzz: coverage, exactness, boundedness -------------------------


@st.composite
def _tiling_case(draw):
    shape = tuple(draw(st.lists(st.integers(1, 12), min_size=2, max_size=4)))
    mode = draw(st.integers(0, len(shape) - 1))
    j = draw(st.integers(1, 6))
    layout = draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
    slack = draw(st.integers(0, 2))  # 1x, 2x, 4x the minimal budget
    return shape, mode, j, layout, slack


@settings(max_examples=40, deadline=None)
@given(case=_tiling_case(), seed=st.integers(0, 3))
def test_fuzz_tiled_is_exact_and_bounded(case, seed):
    shape, mode, j, layout, slack = case
    budget = _min_tile_budget(shape, mode, j, layout) << slack
    x, u = _case_arrays(shape, j, mode, layout, seed=seed)
    base = default_plan(shape, mode, j, layout)
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    assert tiling.parts[mode] == 1
    cover = np.zeros(shape, dtype=np.int64)
    for spec in tiling.tiles():
        cover[spec.in_slices] += 1
    assert (cover == 1).all()
    out = DenseTensor.empty(tiling.out_shape, layout)
    with fault_injection() as faults:
        got = execute_tiled(x, u, tiling, out=out)
    for obs in faults.observations("alloc"):
        assert obs["pool_nbytes"] + obs["kernel_ws"] <= budget, obs
    np.testing.assert_allclose(
        got.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )


# -- streaming -----------------------------------------------------------------


def _chunked(arr, axis, pieces=3):
    extent = arr.shape[axis]
    step = max(1, -(-extent // pieces))
    for lo in range(0, extent, step):
        yield np.take(arr, range(lo, min(extent, lo + step)), axis=axis)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_stream_equals_one_shot_everywhere(dtype):
    """ISSUE 8 acceptance: ttm_stream over incremental slices equals the
    one-shot product for all DEFAULT_CASES, both stream regimes."""
    rtol, atol = DTYPE_TOLERANCES[dtype]
    failures = []
    for shape, j, mode in DEFAULT_CASES:
        x, u = _case_arrays(shape, j, mode, ROW_MAJOR, dtype)
        want = repro.ttm(x, u, mode)
        for axis in range(len(shape)):
            got = ttm_stream_collect(_chunked(x.data, axis), u, mode,
                                     axis=axis)
            label = f"shape={shape} J={j} mode={mode} axis={axis} {dtype}"
            if got.shape != want.shape:
                failures.append(f"{label}: shape {got.shape} != {want.shape}")
            elif not np.allclose(got.data, want.data, rtol=rtol, atol=atol):
                failures.append(f"{label}: values diverge")
    assert not failures, "\n".join(failures)


def test_stream_yields_incrementally_when_axis_differs_from_mode():
    shape, j, mode = (9, 6, 5), 3, 1
    x, u = _case_arrays(shape, j, mode)
    with track_hot_path() as counters:
        chunks = list(ttm_stream(_chunked(x.data, 0, pieces=3), u, mode))
    assert len(chunks) == 3 and counters.stream_chunks == 3
    assert [(c.lo, c.hi) for c in chunks] == [(0, 3), (3, 6), (6, 9)]
    assembled = np.concatenate([c.data.data for c in chunks], axis=0)
    np.testing.assert_allclose(
        assembled, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )


def test_stream_accumulates_when_axis_is_the_contracted_mode():
    shape, j, mode = (7, 10, 4), 5, 1
    x, u = _case_arrays(shape, j, mode)
    chunks = list(ttm_stream(_chunked(x.data, mode, pieces=4), u, mode,
                             axis=mode))
    assert len(chunks) == 1  # partial sums withheld, one final result
    assert (chunks[0].lo, chunks[0].hi) == (0, j)
    np.testing.assert_allclose(
        chunks[0].data.data, ttm_oracle(x.data, u, mode),
        rtol=1e-10, atol=1e-12,
    )


def test_stream_error_contracts():
    u = np.ones((2, 4))
    with pytest.raises(ShapeError, match="empty stream"):
        list(ttm_stream([], u, 0))
    ragged = [np.ones((2, 4)), np.ones((2, 5))]  # non-axis extents drift
    with pytest.raises(ShapeError, match="non-axis extents"):
        list(ttm_stream(ragged, u, 1, axis=0))
    # axis == mode with incomplete coverage: the partial sum is withheld.
    with pytest.raises(ShapeError, match="partial result withheld"):
        list(ttm_stream([np.ones((3, 5))], u, 0, axis=0))
    # Float dtype mismatches are rejected, never silently converted.
    with pytest.raises(DtypeError, match="cast U explicitly"):
        list(ttm_stream([np.ones((4, 3), dtype=np.float32)], u, 0, axis=1))


def test_stream_accumulator_refuses_a_second_layout():
    # The accumulator takes chunk 0's layout; a later chunk in the other
    # layout is a typed error naming the chunk, not a failed out= check.
    x, u = _case_arrays((6, 4, 5), 3, 0)
    chunks = [DenseTensor(x.data[0:2]), DenseTensor(x.data[2:4]),
              DenseTensor(x.data[4:6], COL_MAJOR)]
    with pytest.raises(LayoutError, match="stream chunk 2 is COL_MAJOR"):
        list(ttm_stream(chunks, u, 0, axis=0))


def test_stream_chunks_are_traced_like_tiles():
    shape, j, mode = (9, 6, 5), 3, 1
    x, u = _case_arrays(shape, j, mode)
    with tracing() as tracer:
        chunks = list(ttm_stream(_chunked(x.data, 0, pieces=3), u, mode))
    assert len(chunks) == 3
    spans = [s for s in tracer.collector.spans() if s.name == "tile-exec"]
    assert [s.attrs["tile"] for s in spans] == [0, 1, 2]
    assert [s.attrs["ranges"] for s in spans] == [
        [[lo, lo + 3], [0, 6], [0, 5]] for lo in (0, 3, 6)
    ]
    assert all(s.attrs["tile_shape"] == [3, 6, 5] for s in spans)
    assert not any(s.attrs["packed"] for s in spans)


def test_facade_stream_uses_the_estimator_planner():
    shape, j, mode = (8, 6, 10), 4, 2
    x, u = _case_arrays(shape, j, mode)
    lib = InTensLi(max_threads=1)
    got = list(lib.ttm_stream(_chunked(x.data, 0), u, mode))
    assembled = np.concatenate([c.data.data for c in got], axis=0)
    np.testing.assert_allclose(
        assembled, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )


# -- golden tiling decisions ---------------------------------------------------


def _decision_key(shape, mode, j, layout, budget):
    dims = "x".join(str(s) for s in shape)
    return f"{dims}|m{mode}|J{j}|{layout.name}|B{budget}"


def _compute_tiling_decisions() -> dict[str, dict]:
    """Today's tiling decision for the whole golden grid.

    Deterministic on every host: the default planner and the footprint
    model involve no measurement, and the budget is explicit.
    """
    planner = TilingPlanner()
    decisions: dict[str, dict] = {}
    for layout in (ROW_MAJOR, COL_MAJOR):
        for budget in GOLDEN_BUDGETS:
            for shape, j, mode in DEFAULT_CASES:
                base = default_plan(shape, mode, j, layout)
                key = _decision_key(shape, mode, j, layout, budget)
                try:
                    tiling = planner.plan(base, budget=budget,
                                          out_preallocated=True)
                except ResourceError:
                    decisions[key] = {"untileable": True}
                    continue
                d = tiling.to_dict()
                decisions[key] = {
                    "parts": d["parts"],
                    "n_tiles": d["n_tiles"],
                    "max_tile_shape": d["max_tile_shape"],
                    "packed": d["packed"],
                    "reason": d["reason"],
                    "tile_footprint_bytes": d["tile_footprint_bytes"],
                }
    return decisions


def test_golden_tiling_decisions_match_fixture(request):
    decisions = _compute_tiling_decisions()
    if request.config.getoption("--regen-golden"):
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(
            json.dumps(decisions, indent=2, sort_keys=True) + "\n"
        )
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden fixture {GOLDEN_PATH} is missing; generate it with "
        "`python -m pytest tests/test_tiling.py --regen-golden` and commit it"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    diffs = []
    for key in sorted(set(golden) | set(decisions)):
        want, got = golden.get(key), decisions.get(key)
        if want != got:
            diffs.append(f"{key}: {want!r} -> {got!r}")
    if diffs:
        detail = "\n  ".join(diffs)
        pytest.fail(
            f"{len(diffs)} tiling decision(s) drifted from "
            f"{GOLDEN_PATH.name}:\n  {detail}\n"
            "If intentional, regenerate with `python -m pytest "
            "tests/test_tiling.py --regen-golden` and commit the diff."
        )


# -- CLI -----------------------------------------------------------------------


def test_tile_explain_cli(capsys):
    from repro.cli import main

    assert main(["tile", "explain", "64x64x64", "1", "16",
                 "--budget", "64k"]) == 0
    out = capsys.readouterr().out
    assert "decision" in out and "tile shape" in out
    assert main(["tile", "explain", "8x8", "0", "4", "--budget", "10"]) == 1
    assert "untileable" in capsys.readouterr().out


def test_explain_tiling_is_json_safe():
    info = explain_tiling((16, 16, 16), 1, 4, budget=4096)
    json.dumps(info)
    assert info["view_tileable"] == (not info["packed"])


# -- budget pinning keeps decisions coherent -----------------------------------


def test_execution_pins_the_budget_it_planned_with(monkeypatch):
    # The tiling plan's budget governs execution even if the env flips
    # between planning and executing — the pin is the whole point.
    shape, j, mode = (8, 6, 6), 3, 1
    x, u = _case_arrays(shape, j, mode)
    budget = _min_tile_budget(shape, mode, j, ROW_MAJOR)
    base = default_plan(shape, mode, j, ROW_MAJOR)
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    monkeypatch.setenv(MEM_LIMIT_ENV, "1")  # would refuse everything
    out = DenseTensor.empty(tiling.out_shape, ROW_MAJOR)
    with pinned_budget(1 << 30):
        # An outer pin must be restored after execute_tiled's inner pin.
        got = execute_tiled(x, u, tiling, out=out)
        from repro.resilience.memory import available_bytes
        assert available_bytes() == 1 << 30
    np.testing.assert_allclose(
        got.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
    )
