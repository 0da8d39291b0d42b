"""Tests for the batched InTTM code shape.

Covers the two layers the batched path threads together: the hoisted
rank-3 views generated code builds with one ``reshape`` and one
``transpose``, and the plan/codegen/executor plumbing (``batch_modes``)
— with unbatched plans and the einsum oracle as references.
"""

import numpy as np
import pytest

from repro.core.codegen import _batch_views, compile_plan
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.partition import choose_batch_modes
from repro.core.plan import Strategy, TtmPlan
from repro.core.serialize import plan_from_dict, plan_to_dict
from repro.perf.profiler import track_hot_path
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.tensor.views import merged_matrix_view
from repro.util.errors import PlanError
from tests.helpers import ttm_oracle

# Orders 3-5, non-square extents, size-1 modes.
BATCH_SHAPES = [
    (3, 4, 5),
    (5, 3, 4),
    (2, 3, 4, 5),
    (4, 1, 3, 2),
    (2, 2, 3, 2, 2),
    (3, 2, 2, 2, 2),
]


def _case(shape, mode, j, layout, seed=0):
    rng = np.random.default_rng(seed)
    x = DenseTensor(rng.standard_normal(shape), layout)
    u = rng.standard_normal((j, shape[mode]))
    return x, u


def _hoisted_x3(plan, x):
    """Evaluate the generated ``x3`` view expression for *plan* on *x*."""
    return eval(_batch_views(plan)[0], {}, {"x": x.data})


class TestMergedBatchView:
    """The hoisted ``(outer..., B, rows, cols)`` view generated code builds."""

    def test_stacks_matrix_views(self):
        """The view's slices are exactly the per-index 2-D views."""
        rng = np.random.default_rng(1)
        x = DenseTensor(rng.standard_normal((4, 5, 6, 7)), ROW_MAJOR)
        # mode=1 forward with comp=(3,): batch mode 2, outer mode 0.
        plan = default_plan(x.shape, 1, 3, ROW_MAJOR, degree=1)
        assert plan.batch_modes == (2,) and plan.outer_loop_modes == (0,)
        x3 = _hoisted_x3(plan, x)
        assert x3.shape == (4, 6, 5, 7)
        for i0 in range(4):
            for i2 in range(6):
                expect = merged_matrix_view(x, (1,), (3,), {0: i0, 2: i2})
                assert np.array_equal(x3[i0, i2], expect)

    def test_merges_multi_mode_batch_run(self):
        rng = np.random.default_rng(2)
        x = DenseTensor(rng.standard_normal((3, 4, 5, 6)), ROW_MAJOR)
        # mode=2 forward, comp=(3,): batch run (0, 1) merges into B=12.
        plan = default_plan(x.shape, 2, 3, ROW_MAJOR)
        assert plan.batch_modes == (0, 1)
        x3 = _hoisted_x3(plan, x)
        assert x3.shape == (12, 5, 6)
        b = 0
        for i0 in range(3):
            for i1 in range(4):
                expect = merged_matrix_view(x, (2,), (3,), {0: i0, 1: i1})
                assert np.array_equal(x3[b], expect)
                b += 1

    def test_is_a_view_not_a_copy(self):
        x = DenseTensor.zeros((3, 4, 5), ROW_MAJOR)
        x3 = _hoisted_x3(default_plan(x.shape, 1, 2, ROW_MAJOR), x)
        x3[1, 2, 3] = 42.0
        assert x.data[1, 2, 3] == 42.0

    def test_empty_col_run_is_batched_fiber(self):
        rng = np.random.default_rng(3)
        x = DenseTensor(rng.standard_normal((3, 4, 5)), ROW_MAJOR)
        plan = default_plan(x.shape, 2, 2, ROW_MAJOR, degree=0)
        x3 = _hoisted_x3(plan, x)
        assert x3.shape == (12, 5, 1)
        assert np.array_equal(x3[0][:, 0], x.data[0, 0, :])

    def test_factory_matches_direct_views(self):
        """Column-major backward: batch run (1,) after outer mode 3.

        The loop nest is storage-monotone (decreasing for column-major),
        so the outermost loop is mode 3 and the batch is mode 1.
        """
        rng = np.random.default_rng(4)
        x = DenseTensor(rng.standard_normal((4, 5, 6, 7)), COL_MAJOR)
        plan = default_plan(x.shape, 2, 3, COL_MAJOR, degree=1)
        assert plan.outer_loop_modes == (3,) and plan.batch_modes == (1,)
        x3 = _hoisted_x3(plan, x)
        assert x3.shape == (7, 5, 4, 6)
        for i1 in range(5):
            for i3 in range(7):
                expect = merged_matrix_view(x, (0,), (2,), {1: i1, 3: i3})
                assert np.array_equal(x3[i3, i1], expect)


class TestPlanBatchModes:
    def test_default_plan_marks_maximal_suffix(self):
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, degree=1)
        assert plan.loop_modes == (0, 2)
        assert plan.batch_modes == (2,)  # 0 and 2 are not consecutive
        assert plan.outer_loop_modes == (0,)
        assert plan.batch_extent == 7
        assert plan.gemm_dispatch_count == 9

    def test_full_collapse_has_no_outer_loop(self):
        plan = default_plan((9, 8, 7), 1, 3, ROW_MAJOR, degree=1)
        assert plan.loop_modes == (0,)
        assert plan.batch_modes == (0,)
        assert plan.outer_loop_modes == ()
        assert plan.gemm_dispatch_count == 1

    def test_batched_false_disables(self):
        plan = default_plan((9, 8, 7), 2, 3, ROW_MAJOR, batched=False)
        assert plan.batch_modes == ()
        assert plan.gemm_dispatch_count == plan.loop_iterations

    def test_choose_batch_modes_stops_at_gap(self):
        # M_L = (0, 2): the innermost suffix (2,) stacks, extending to
        # (0, 2) would need the non-consecutive merge Lemma 4.1 forbids.
        assert choose_batch_modes((9, 8, 7, 6), ROW_MAJOR, 1, 3, (0, 2)) == (2,)
        assert choose_batch_modes((9, 8, 7, 6), ROW_MAJOR, 3, 3, (0, 1, 2)) == (
            0,
            1,
            2,
        )
        assert choose_batch_modes((9, 8, 7), ROW_MAJOR, 1, 3, ()) == ()

    def test_validation_rejects_non_suffix(self):
        with pytest.raises(PlanError):
            TtmPlan(
                shape=(9, 8, 7, 6),
                mode=1,
                j=3,
                layout=ROW_MAJOR,
                strategy=Strategy.FORWARD,
                component_modes=(3,),
                loop_modes=(0, 2),
                batch_modes=(0,),  # outermost, not the innermost suffix
            )

    def test_validation_rejects_non_consecutive(self):
        with pytest.raises(PlanError):
            TtmPlan(
                shape=(9, 8, 7, 6, 5),
                mode=1,
                j=3,
                layout=ROW_MAJOR,
                strategy=Strategy.FORWARD,
                component_modes=(4,),
                loop_modes=(0, 2, 3),
                batch_modes=(0, 2, 3),
            )

    def test_serialization_round_trips_batch_modes(self):
        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, degree=1)
        assert plan.batch_modes
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_legacy_payload_defaults_to_unbatched(self):
        payload = plan_to_dict(default_plan((9, 8, 7), 1, 3, ROW_MAJOR))
        del payload["batch_modes"]
        assert plan_from_dict(payload).batch_modes == ()


class TestBatchedEquivalence:
    """Batched vs. per-iteration vs. definitional oracle, full matrix."""

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_every_mode_and_degree(self, shape, layout):
        j = 4
        for mode in range(len(shape)):
            x, u = _case(shape, mode, j, layout, seed=hash(shape) % 997)
            oracle = ttm_oracle(x.data, u, mode)
            max_degree = max(
                mode, len(shape) - 1 - mode
            )  # whichever side the strategy uses
            for degree in range(0, max_degree + 1):
                try:
                    batched = default_plan(shape, mode, j, layout, degree=degree)
                    looped = default_plan(
                        shape, mode, j, layout, degree=degree, batched=False
                    )
                except PlanError:
                    continue  # degree out of range for this strategy
                y_b = ttm_inplace(x, u, plan=batched)
                y_l = ttm_inplace(x, u, plan=looped)
                np.testing.assert_allclose(
                    y_b.data, y_l.data, rtol=1e-12, atol=0
                )
                np.testing.assert_allclose(
                    y_b.data, oracle, rtol=1e-10, atol=1e-12
                )

    @pytest.mark.parametrize("kernel", ["auto", "blas", "blocked"])
    def test_kernels_agree_with_batching(self, kernel):
        shape, mode, j = (5, 6, 7, 4), 1, 3
        x, u = _case(shape, mode, j, ROW_MAJOR, seed=11)
        plan = default_plan(shape, mode, j, ROW_MAJOR, degree=1, kernel=kernel)
        assert plan.batch_modes
        y = ttm_inplace(x, u, plan=plan)
        np.testing.assert_allclose(
            y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
        )

    @pytest.mark.parametrize(
        "p_l,p_c", [(2, 1), (1, 2), (2, 2), (3, 2), (4, 1)]
    )
    def test_threaded_batched_execution(self, p_l, p_c):
        shape, mode, j = (6, 5, 4, 3), 1, 2
        x, u = _case(shape, mode, j, ROW_MAJOR, seed=12)
        if p_l > 1 and p_c > 1:
            # P_C sizes the process-wide BLAS pool: never under P_L.
            with pytest.raises(PlanError):
                default_plan(shape, mode, j, ROW_MAJOR, degree=1,
                             loop_threads=p_l, kernel_threads=p_c)
            return
        plan = default_plan(
            shape, mode, j, ROW_MAJOR, degree=1,
            loop_threads=p_l, kernel_threads=p_c,
        )
        y = ttm_inplace(x, u, plan=plan)
        np.testing.assert_allclose(
            y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
        )

    def test_batch_chunking_when_no_outer_loop(self):
        # Full collapse + P_L > 1: the batch itself is split over workers.
        shape, mode, j = (8, 7, 3), 2, 4
        x, u = _case(shape, mode, j, ROW_MAJOR, seed=13)
        plan = default_plan(shape, mode, j, ROW_MAJOR, degree=0, loop_threads=3)
        assert plan.batch_modes and not plan.outer_loop_modes
        y = ttm_inplace(x, u, plan=plan)
        np.testing.assert_allclose(
            y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
        )

    def test_accumulate_through_batched_path(self):
        shape, mode, j = (4, 5, 6), 1, 3
        x, u = _case(shape, mode, j, ROW_MAJOR, seed=14)
        plan = default_plan(shape, mode, j, ROW_MAJOR, degree=1)
        assert plan.batch_modes
        out = DenseTensor.zeros(plan.out_shape, ROW_MAJOR)
        out.data[...] = 1.0
        ttm_inplace(x, u, plan=plan, out=out, accumulate=True)
        np.testing.assert_allclose(
            out.data, 1.0 + ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
        )

    def test_transpose_u_through_batched_path(self):
        shape, mode, j = (4, 5, 6), 1, 3
        rng = np.random.default_rng(15)
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        ut = rng.standard_normal((shape[mode], j))  # (I_n, J)
        y = ttm_inplace(x, ut, mode, transpose_u=True)
        np.testing.assert_allclose(
            y.data, ttm_oracle(x.data, ut.T, mode), rtol=1e-10, atol=1e-12
        )

    def test_unbatched_plan_falls_back(self):
        """An explicitly unbatched plan dispatches once per loop index,
        whether or not its loop nest could have collapsed."""
        j = 3
        for shape in ((5, 4, 6), (5, 4, 6, 3)):
            mode = 1
            x, u = _case(shape, mode, j, ROW_MAJOR, seed=16)
            plan = default_plan(shape, mode, j, ROW_MAJOR, degree=1,
                                batched=False)
            with track_hot_path() as counters:
                y = ttm_inplace(x, u, plan=plan)
            assert counters.batched_calls == 0
            assert counters.gemm_calls == plan.loop_iterations
            np.testing.assert_allclose(
                y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
            )


class TestHotCounters:
    def test_batched_reduces_dispatches_by_batch_factor(self):
        shape, mode, j = (8, 6, 7, 4), 1, 3
        x, u = _case(shape, mode, j, ROW_MAJOR, seed=17)
        batched = default_plan(shape, mode, j, ROW_MAJOR, degree=1)
        looped = default_plan(shape, mode, j, ROW_MAJOR, degree=1, batched=False)
        assert batched.batch_modes == (2,)
        with track_hot_path() as c_batched:
            ttm_inplace(x, u, plan=batched)
        with track_hot_path() as c_looped:
            ttm_inplace(x, u, plan=looped)
        assert c_looped.dispatches == looped.loop_iterations == 56
        assert c_batched.dispatches == batched.gemm_dispatch_count == 8
        # Same total GEMM work, fewer interpreter crossings.
        assert c_batched.total_slices == c_looped.total_slices == 56
        assert c_batched.max_batch == batched.batch_extent == 7

    def test_counters_off_by_default(self):
        from repro.perf.profiler import active_hot_counters

        assert active_hot_counters() is None


class TestGeneratedBatched:
    """The code generator emits the same batched engine."""

    @pytest.mark.parametrize("shape", BATCH_SHAPES)
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_generated_matches_oracle(self, shape, layout):
        j = 3
        for mode in range(len(shape)):
            for degree in [1, 2]:
                try:
                    plan = default_plan(shape, mode, j, layout, degree=degree)
                except PlanError:
                    continue
                x, u = _case(shape, mode, j, layout, seed=19)
                fn = compile_plan(plan)
                y = DenseTensor.empty(plan.out_shape, layout)
                fn(x.data, u, y.data)
                np.testing.assert_allclose(
                    y.data, ttm_oracle(x.data, u, mode), rtol=1e-10, atol=1e-12
                )

    def test_partial_collapse_source_uses_strided_batch(self):
        from repro.core.codegen import generate_source

        plan = default_plan((9, 8, 7, 6), 1, 3, ROW_MAJOR, degree=1)
        src = generate_source(plan)
        hoisted = "x3 = x.reshape((9, 8, 7, 6)).transpose(0, 2, 1, 3)"
        assert src.index(hoisted) < src.index("for i0 in range(9):")
        assert "np.matmul(u, x3[i0], out=y3[i0])" in src
        assert "as_strided" not in src
