"""Tests for the code generator: structure and numerical equivalence."""

import asyncio
import gc
import types

import numpy as np
import pytest

from repro.core import codegen
from repro.core.codegen import compile_plan, generate_source
from repro.core.intensli import InTensLi
from repro.core.inttm import default_plan, ttm_inplace
from repro.perf.profiler import track_hot_path
from repro.resilience.memory import MEM_LIMIT_ENV, plan_footprint_bytes
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import DEFAULT_CASES, DEGENERATE_CASES, ttm_reference
from repro.util.errors import PlanError
from tests.helpers import TTM_CASES, ttm_oracle


def grid_plans():
    """Every P_L = P_C = 1 plan of the shared case grid: both layouts,
    every legal degree, batched and unbatched."""
    for shape, j, mode in DEFAULT_CASES + DEGENERATE_CASES:
        for layout in (ROW_MAJOR, COL_MAJOR):
            for degree in range(len(shape)):
                for batched in (True, False):
                    try:
                        yield default_plan(shape, mode, j, layout,
                                           degree=degree, batched=batched)
                    except PlanError:
                        continue  # degree out of range for this strategy


def run_generated(plan, x, u):
    fn = compile_plan(plan)
    y = DenseTensor.empty(plan.out_shape, plan.layout)
    fn(x.data, u, y.data)
    return y


class TestSourceStructure:
    def test_collapsible_plan_emits_batched_matmul(self):
        """Leading loop modes collapse into one rank-3 batched matmul."""
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR)
        src = generate_source(plan)
        assert "x.reshape((9, 8, 7))" in src
        assert "y.reshape((9, 3, 7))" in src
        assert "np.matmul(u, x3, out=y3)" in src
        assert "for " not in src

    def test_backward_collapsible_plan_batches_over_trailing(self):
        plan = default_plan((9, 8, 7), 1, 3, COL_MAJOR, kernel="blas")
        src = generate_source(plan)
        assert "order='F'" in src
        assert "np.matmul(x3, ut, out=y3)" in src

    def test_cross_strategy_rm_last_mode_batches(self):
        """Backward on the last row-major mode: batched over the middle
        (loop) block, with U transposed."""
        plan = default_plan((9, 8, 7), 2, 3, ROW_MAJOR, degree=1,
                            kernel="blas")
        src = generate_source(plan)
        assert "ut = u.T" in src
        assert "np.matmul(x3, ut, out=y3)" in src
        assert ".transpose(1, 0, 2)" in src
        assert "for " not in src

    def test_cross_strategy_cm_first_mode_batches(self):
        """Forward on the first column-major mode: batched with F-order
        reshapes over the middle block."""
        plan = default_plan((9, 8, 7), 0, 3, COL_MAJOR, degree=1,
                            kernel="blas")
        src = generate_source(plan)
        assert "order='F'" in src
        assert "np.matmul(u, x3, out=y3)" in src
        assert "for " not in src

    def test_serial_source_has_literal_loops(self):
        # A blocked-kernel plan cannot collapse: a literal loop over its
        # batch axis makes one 2-D call per index on views hoisted above.
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, kernel="blocked")
        src = generate_source(plan)
        loop = src.index("for ib in range(9):")
        assert src.index("x3 = x.reshape((9, 8, 7))") < loop
        assert src.index("y3 = y.reshape((9, 3, 7))") < loop
        assert "gemm_blocked(u, x3[ib], out=y3[ib])" in src
        assert "def inttm(x, u, y):" in src

    def test_partial_collapse_batches_inner_run(self):
        # Degree 1 of an order-4 tensor: M_L = (0, 2) only partially
        # collapses — mode 2 batches into a rank-3 matmul and mode 0
        # stays a literal outer loop around views hoisted above it.
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, kernel="blas",
                            degree=1)
        assert plan.batch_modes == (2,)
        src = generate_source(plan)
        loop = src.index("for i0 in range(9):")
        for view in (
            "x3 = x.reshape((9, 8, 7, 6)).transpose(0, 2, 1, 3)",
            "y3 = y.reshape((9, 3, 7, 6)).transpose(0, 2, 1, 3)",
        ):
            assert src.index(view) < loop
        assert "np.matmul(u, x3[i0], out=y3[i0])" in src

    def test_blas_kernel_inlines_matmul(self):
        # An explicitly unbatched plan keeps the explicit nest with a
        # per-iteration 2-D matmul on its extent-1 batch axis.
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, kernel="blas",
                            degree=1, batched=False)
        src = generate_source(plan)
        assert "for i0 in range(9):" in src and "for i2 in range(7):" in src
        assert "np.matmul(u, x3[i0, i2, 0], out=y3[i0, i2, 0])" in src

    def test_blocked_kernel_emits_gemm_blocked(self):
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, kernel="blocked")
        assert "gemm_blocked(" in generate_source(plan)

    def test_threaded_kernel_emits_gemm_threaded(self, monkeypatch):
        # P_C sizes the BLAS pool around the one-shape body.
        monkeypatch.setattr(codegen, "blas_pinning_available", lambda: True)
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, kernel_threads=4)
        src = generate_source(plan)
        assert "gemm_threaded(" not in src
        assert "    with blas_threads(4):\n        np.matmul(u, x3, out=y3)" in src

    def test_threaded_kernel_at_one_thread_runs_the_blas_path(self):
        # P_C is the only kernel thread count: kernel="threaded" at
        # P_C = 1 compiles like "auto", with no threaded call.
        plan = default_plan((64, 64, 64), 1, 8, ROW_MAJOR, kernel="threaded")
        src = generate_source(plan)
        assert "threaded" not in src.split('"""')[2]
        assert "np.matmul(u, x3, out=y3)" in src
        rng = np.random.default_rng(16)
        x = DenseTensor(rng.standard_normal(plan.shape), ROW_MAJOR)
        u = rng.standard_normal((8, 64))
        np.testing.assert_allclose(
            ttm_inplace(x, u, plan=plan).data,
            ttm_reference(x.data, u, 1), rtol=1e-12, atol=1e-12,
        )

    def test_parallel_loops_emit_parfor(self):
        plan = default_plan((9, 8, 7, 6), 2, 3, ROW_MAJOR, loop_threads=4)
        src = generate_source(plan)
        assert "parfor(" in src and "threads=4" in src
        assert "def body(_index):" in src

    def test_backward_strategy_uses_transpose(self):
        # Force the loop form with a blocked kernel (not collapsible).
        plan = default_plan((9, 8, 7), 1, 3, COL_MAJOR, kernel="blocked")
        src = generate_source(plan)
        assert "ut = u.T" in src
        assert "order='F'" in src
        assert "gemm_blocked(x3[ib], ut, out=y3[ib])" in src

    def test_docstring_carries_plan_description(self):
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR)
        assert plan.describe() in generate_source(plan)

    def test_custom_function_name(self):
        plan = default_plan((4, 4), 0, 2, ROW_MAJOR)
        assert "def my_ttm(" in generate_source(plan, function_name="my_ttm")


class TestOneCodeShape:
    def test_dispatch_counts_match_the_plan(self):
        """Compiled code dispatches exactly what the plan promises: once
        per outer index when batched, once per loop index otherwise."""
        checked = 0
        for plan in grid_plans():
            counts = compile_plan(plan).counts
            assert counts.dispatches == plan.gemm_dispatch_count, (
                plan.describe()
            )
            checked += 1
        assert checked > 100

    def test_no_generated_source_uses_as_strided(self):
        for plan in grid_plans():
            assert "as_strided" not in generate_source(plan), plan.describe()


def _live_kernels() -> int:
    """Compiled kernels still reachable after a full collection."""
    gc.collect()
    return sum(
        1 for obj in gc.get_objects()
        if isinstance(obj, types.FunctionType) and hasattr(obj, "counts")
        and hasattr(obj, "__source__")
    )


def _operands(shape, mode, j, seed=0):
    rng = np.random.default_rng(seed)
    return (
        DenseTensor(rng.standard_normal(shape), ROW_MAJOR),
        rng.standard_normal((j, shape[mode])),
    )


class TestKernelOwnership:
    """A plan instance owns its kernel: freeing the plan frees the code."""

    def test_same_plan_compiles_once(self):
        plan = default_plan((5, 5, 5), 0, 2, ROW_MAJOR)
        assert plan.compiled.fn is plan.compiled.fn
        # An equal instance compiles its own, byte-identical kernel.
        twin = default_plan((5, 5, 5), 0, 2, ROW_MAJOR)
        assert twin == plan and twin.compiled.fn is not plan.compiled.fn
        assert twin.compiled.fn.__source__ == plan.compiled.fn.__source__
        assert compile_plan(plan).__source__ == generate_source(plan)

    def test_source_attached(self):
        plan = default_plan((5, 5, 5), 0, 2, ROW_MAJOR)
        fn = compile_plan(plan)
        assert "def inttm" in fn.__source__

    def test_quota_limited_server_keeps_only_its_quota(self):
        from repro.serve import ServeConfig, TtmServer

        async def scenario(server):
            await server.start()
            try:
                for k in range(300):
                    x, u = _operands((2, 3, 40 + k), 1, 2, seed=k)
                    await server.submit(x, u, 1, tenant="t")
            finally:
                await server.stop()

        before = _live_kernels()
        server = TtmServer(config=ServeConfig(
            tenant_cache_quota=8, batch_window_s=0.0,
        ))
        asyncio.run(scenario(server))
        assert len(server.plan_cache) <= 8
        assert _live_kernels() - before <= 8

    def test_standalone_calls_keep_at_most_the_memo(self):
        before = _live_kernels()
        for k in range(300):
            x, u = _operands((3, 2, 60 + k), 1, 2, seed=k)
            ttm_inplace(x, u, 1)
        assert _live_kernels() - before <= 256

    def test_clearing_the_plan_cache_frees_the_facades_kernels(self):
        lib = InTensLi()
        before = _live_kernels()
        for k in range(20):
            x, u = _operands((4, 3, 30 + k), 2, 2, seed=k)
            lib.ttm(x, u, 2)
        assert _live_kernels() - before >= 20
        lib.plan_cache.clear()
        assert _live_kernels() - before <= 0

    def test_a_repeated_memory_replan_compiles_once(self, monkeypatch):
        x, u = _operands((6, 7, 9), 1, 4)
        plan = default_plan(x.shape, 1, 4, ROW_MAJOR)
        plan.compiled  # the caller's own plan, compiled before counting
        lower = default_plan(x.shape, 1, 4, ROW_MAJOR, degree=0)
        monkeypatch.setenv(
            MEM_LIMIT_ENV, str(plan_footprint_bytes(lower, allocate_out=True))
        )
        compiled = []
        real = codegen.compile_plan

        def counting(p):
            compiled.append(p)
            return real(p)

        monkeypatch.setattr(codegen, "compile_plan", counting)
        with track_hot_path() as counters:
            for _ in range(5):
                y = ttm_inplace(x, u, plan=plan, allow_replan=True)
        assert counters.memory_replans == 5
        assert compiled == [lower]
        np.testing.assert_allclose(
            y.data, ttm_reference(x.data, u, 1), rtol=1e-12, atol=1e-12
        )


class TestGeneratedEquivalence:
    @pytest.mark.parametrize("shape,j,mode", TTM_CASES)
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_generated_matches_oracle(self, shape, j, mode, layout):
        rng = np.random.default_rng(hash(("cg", shape, j, mode)) % 2**32)
        x = DenseTensor(rng.standard_normal(shape), layout)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, layout)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    @pytest.mark.parametrize("degree", [0, 1, 2])
    def test_generated_matches_interpreter_all_degrees(self, degree):
        rng = np.random.default_rng(13)
        shape, j, mode = (4, 5, 3, 4), 2, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, degree=degree)
        y_gen = run_generated(plan, x, u)
        y_int = ttm_inplace(x, u, plan=plan)
        assert np.allclose(y_gen.data, y_int.data)

    def test_parallel_generated_matches(self):
        rng = np.random.default_rng(14)
        shape, j, mode = (6, 5, 4, 3), 2, 2
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, loop_threads=3)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    def test_parallel_single_loop_mode(self):
        rng = np.random.default_rng(15)
        shape, j, mode = (6, 5, 4), 2, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, loop_threads=2)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    def test_generated_is_in_place(self):
        rng = np.random.default_rng(16)
        shape, j, mode = (4, 5, 6), 3, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR)
        fn = compile_plan(plan)
        y = DenseTensor.zeros(plan.out_shape, ROW_MAJOR)
        buffer = y.data
        fn(x.data, u, y.data)
        assert y.data is buffer
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    def test_col_major_backward_threaded_kernel(self):
        rng = np.random.default_rng(17)
        shape, j, mode = (4, 5, 6), 3, 2
        x = DenseTensor(rng.standard_normal(shape), COL_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, COL_MAJOR, kernel_threads=2)
        y = run_generated(plan, x, u)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))
