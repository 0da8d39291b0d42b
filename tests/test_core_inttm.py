"""Correctness tests for the in-place executor (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inttm import default_plan, ttm_inplace
from repro.core.plan import Strategy
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.util.errors import PlanError, ShapeError
from tests.helpers import TTM_CASES, ttm_oracle


class TestAgainstOracle:
    @pytest.mark.parametrize("shape,j,mode", TTM_CASES)
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_matches_equation_1(self, shape, j, mode, layout):
        rng = np.random.default_rng(hash((shape, j, mode)) % 2**32)
        x = DenseTensor(rng.standard_normal(shape), layout)
        u = rng.standard_normal((j, shape[mode]))
        y = ttm_inplace(x, u, mode)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))
        assert y.layout is layout

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_every_degree_agrees(self, degree):
        rng = np.random.default_rng(7)
        shape, j, mode = (4, 5, 3, 2, 3), 2, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, degree=degree)
        y = ttm_inplace(x, u, plan=plan)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    @pytest.mark.parametrize("kernel", ["auto", "blas", "blocked"])
    def test_every_kernel_agrees(self, kernel):
        rng = np.random.default_rng(8)
        shape, j, mode = (6, 7, 8), 3, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        plan = default_plan(shape, mode, j, ROW_MAJOR, kernel=kernel)
        y = ttm_inplace(x, u, plan=plan)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    @pytest.mark.parametrize("p_l,p_c", [(2, 1), (1, 2), (2, 2), (3, 2)])
    def test_threaded_execution_agrees(self, p_l, p_c):
        rng = np.random.default_rng(9)
        shape, j, mode = (6, 5, 4, 3), 2, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        if p_l > 1 and p_c > 1:
            # P_C sizes the process-wide BLAS pool: never under P_L.
            with pytest.raises(PlanError):
                default_plan(shape, mode, j, ROW_MAJOR, loop_threads=p_l,
                             kernel_threads=p_c)
            return
        plan = default_plan(
            shape, mode, j, ROW_MAJOR, loop_threads=p_l, kernel_threads=p_c
        )
        y = ttm_inplace(x, u, plan=plan)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))

    @settings(max_examples=30, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 5), min_size=1, max_size=5),
        j=st.integers(1, 6),
        data=st.data(),
    )
    def test_property_random_geometry(self, shape, j, data):
        mode = data.draw(st.integers(0, len(shape) - 1))
        layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
        rng = np.random.default_rng(42)
        x = DenseTensor(rng.standard_normal(shape), layout)
        u = rng.standard_normal((j, shape[mode]))
        y = ttm_inplace(x, u, mode)
        assert np.allclose(y.data, ttm_oracle(x.data, u, mode))


class TestInPlaceSemantics:
    def test_writes_into_provided_out(self):
        rng = np.random.default_rng(10)
        shape, j, mode = (4, 5, 6), 3, 1
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        out = DenseTensor.zeros((4, 3, 6), ROW_MAJOR)
        buffer_before = out.data
        result = ttm_inplace(x, u, mode, out=out)
        assert result is out
        assert result.data is buffer_before

    def test_input_tensor_unchanged(self):
        rng = np.random.default_rng(11)
        x = DenseTensor(rng.standard_normal((4, 5, 6)), ROW_MAJOR)
        snapshot = x.data.copy()
        u = rng.standard_normal((2, 5))
        ttm_inplace(x, u, 1)
        assert np.array_equal(x.data, snapshot)

    def test_no_tensor_sized_temporaries(self):
        """The executor must not materialize a matricized copy of X.

        We verify indirectly but sharply: run with tracemalloc and assert
        the peak extra allocation stays far below |X| (a copy-based
        implementation allocates >= |X| for X_mat).
        """
        import tracemalloc

        rng = np.random.default_rng(12)
        shape, j, mode = (48, 48, 48), 4, 1  # X is ~884 KB
        x = DenseTensor(rng.standard_normal(shape), ROW_MAJOR)
        u = rng.standard_normal((j, shape[mode]))
        out = DenseTensor.empty((48, 4, 48), ROW_MAJOR)
        ttm_inplace(x, u, mode, out=out)  # warm up
        tracemalloc.start()
        ttm_inplace(x, u, mode, out=out)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < x.nbytes / 4


class TestValidation:
    def test_requires_plan_or_mode(self):
        x = DenseTensor.zeros((3, 4))
        with pytest.raises(PlanError):
            ttm_inplace(x, np.zeros((2, 3)))

    def test_rejects_plain_ndarray_input(self):
        with pytest.raises(TypeError):
            ttm_inplace(np.zeros((3, 4)), np.zeros((2, 3)), 0)

    def test_u_shape_mismatch(self):
        x = DenseTensor.zeros((3, 4))
        with pytest.raises(ShapeError):
            ttm_inplace(x, np.zeros((2, 5)), 0)

    def test_u_must_be_2d(self):
        x = DenseTensor.zeros((3, 4))
        with pytest.raises(ShapeError):
            ttm_inplace(x, np.zeros(3), 0)

    def test_plan_input_mismatch(self):
        x = DenseTensor.zeros((3, 4))
        plan = default_plan((5, 4), 0, 2, ROW_MAJOR)
        with pytest.raises(PlanError):
            ttm_inplace(x, np.zeros((2, 5)), plan=plan)

    def test_out_shape_mismatch(self):
        x = DenseTensor.zeros((3, 4))
        out = DenseTensor.zeros((3, 3))
        with pytest.raises(PlanError):
            ttm_inplace(x, np.zeros((2, 4)), 1, out=out)

    def test_out_layout_mismatch(self):
        x = DenseTensor.zeros((3, 4), ROW_MAJOR)
        out = DenseTensor.zeros((3, 2), COL_MAJOR)
        with pytest.raises(PlanError):
            ttm_inplace(x, np.zeros((2, 4)), 1, out=out)

    def test_out_must_be_dense_tensor(self):
        x = DenseTensor.zeros((3, 4))
        with pytest.raises(TypeError):
            ttm_inplace(x, np.zeros((2, 4)), 1, out=np.zeros((3, 2)))


class TestDefaultPlan:
    def test_maximal_merge_row_major(self):
        plan = default_plan((4, 5, 6, 7), 1, 3, ROW_MAJOR)
        assert plan.component_modes == (2, 3)
        assert plan.loop_modes == (0,)
        assert plan.strategy is Strategy.FORWARD

    def test_maximal_merge_col_major(self):
        plan = default_plan((4, 5, 6, 7), 2, 3, COL_MAJOR)
        assert plan.component_modes == (0, 1)
        assert plan.loop_modes == (3,)
        assert plan.strategy is Strategy.BACKWARD

    def test_last_mode_row_major_flips_to_backward(self):
        plan = default_plan((4, 5, 6), 2, 3, ROW_MAJOR)
        assert plan.strategy is Strategy.BACKWARD
        assert plan.component_modes == (0, 1)
        assert plan.loop_modes == ()

    def test_first_mode_col_major_flips_to_forward(self):
        plan = default_plan((4, 5, 6), 0, 3, COL_MAJOR)
        assert plan.strategy is Strategy.FORWARD
        assert plan.component_modes == (1, 2)

    def test_order1_has_no_components_either_way(self):
        plan = default_plan((7,), 0, 3, ROW_MAJOR)
        assert plan.component_modes == ()
        assert plan.loop_modes == ()

    def test_explicit_degree(self):
        plan = default_plan((4, 5, 6, 7), 0, 3, ROW_MAJOR, degree=2)
        assert plan.component_modes == (2, 3)
        assert plan.loop_modes == (1,)
