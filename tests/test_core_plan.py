"""Tests for TtmPlan validation and derived geometry."""

import copy as copy_module
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from repro.autotune.cache import PlanKey
from repro.core import InTensLi
from repro.core.codegen import compile_plan
from repro.core.plan import Strategy, TtmPlan
from repro.core.serialize import plan_from_dict, plan_to_dict, plans_to_json
from repro.resilience.memory import plan_footprint_bytes
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR, Layout, element_strides
from repro.util.errors import PlanError
from repro.tensor.dense import DenseTensor
from repro.testing import DEFAULT_CASES, ttm_reference
from tests.test_golden_plans import (
    decision_key,
    golden_path,
    plan_decision,
)


def make_plan(**overrides):
    base = dict(
        shape=(4, 5, 6, 7),
        mode=1,
        j=3,
        layout=ROW_MAJOR,
        strategy=Strategy.FORWARD,
        component_modes=(2, 3),
        loop_modes=(0,),
    )
    base.update(overrides)
    return TtmPlan(**base)


class TestStrategy:
    def test_natural_for_layouts(self):
        assert Strategy.natural_for(Layout.ROW_MAJOR) is Strategy.FORWARD
        assert Strategy.natural_for(Layout.COL_MAJOR) is Strategy.BACKWARD


class TestValidation:
    def test_valid_plan_constructs(self):
        plan = make_plan()
        assert plan.degree == 2

    def test_mode_out_of_range(self):
        with pytest.raises(PlanError):
            make_plan(mode=4)

    def test_j_must_be_positive(self):
        with pytest.raises(PlanError):
            make_plan(j=0)

    def test_threads_must_be_positive(self):
        with pytest.raises(PlanError):
            make_plan(loop_threads=0)

    def test_overlapping_modes(self):
        with pytest.raises(PlanError):
            make_plan(component_modes=(2, 3), loop_modes=(0, 2))

    def test_mode_in_component_set(self):
        with pytest.raises(PlanError):
            make_plan(component_modes=(1, 2, 3), loop_modes=(0,))

    def test_incomplete_cover(self):
        with pytest.raises(PlanError):
            make_plan(component_modes=(3,), loop_modes=(0,))

    def test_non_consecutive_components(self):
        with pytest.raises(PlanError):
            make_plan(
                shape=(4, 5, 6, 7, 8), mode=1,
                component_modes=(2, 4), loop_modes=(0, 3),
            )

    def test_forward_requires_rightmost_run(self):
        # (2,) alone does not extend to the last mode — illegal forward M_C.
        with pytest.raises(PlanError):
            make_plan(component_modes=(2,), loop_modes=(0, 3))

    def test_forward_component_must_follow_mode(self):
        with pytest.raises(PlanError):
            make_plan(
                mode=3, component_modes=(2,), loop_modes=(0, 1),
            )

    def test_backward_requires_leftmost_run(self):
        plan = make_plan(
            mode=2,
            layout=COL_MAJOR,
            strategy=Strategy.BACKWARD,
            component_modes=(0, 1),
            loop_modes=(3,),
        )
        assert plan.degree == 2
        with pytest.raises(PlanError):
            make_plan(
                mode=2,
                layout=COL_MAJOR,
                strategy=Strategy.BACKWARD,
                component_modes=(1,),
                loop_modes=(0, 3),
            )

    def test_empty_component_set_allowed(self):
        plan = make_plan(component_modes=(), loop_modes=(0, 2, 3))
        assert plan.degree == 0
        assert plan.component_extent == 1


class TestDerivedGeometry:
    def test_out_shape_replaces_mode(self):
        assert make_plan().out_shape == (4, 3, 6, 7)

    def test_kernel_shape_forward(self):
        # Y_sub (J x P) = U (J x I_n) @ X_sub (I_n x P), P = 6*7.
        assert make_plan().kernel_shape == (3, 5, 42)

    def test_kernel_shape_backward(self):
        plan = make_plan(
            mode=2,
            layout=COL_MAJOR,
            strategy=Strategy.BACKWARD,
            component_modes=(0, 1),
            loop_modes=(3,),
        )
        # Y_sub (P x J) = X_sub (P x I_n) @ U^T, P = 4*5.
        assert plan.kernel_shape == (20, 6, 3)

    def test_loop_extents_and_iterations(self):
        plan = make_plan(component_modes=(3,), loop_modes=(0, 2))
        assert plan.loop_extents == (4, 6)
        assert plan.loop_iterations == 24

    def test_kernel_working_set(self):
        plan = make_plan()
        m, k, n = plan.kernel_shape
        assert plan.kernel_working_set_bytes == 8 * (m * k + k * n + m * n)

    def test_total_flops_matches_definition(self):
        plan = make_plan()
        assert plan.total_flops == 2 * plan.j * 4 * 5 * 6 * 7

    def test_describe_mentions_key_fields(self):
        text = make_plan().describe()
        assert "mode=1" in text and "M_C=(2,3)" in text and "forward" in text

    def test_cache_key(self):
        plan = make_plan()
        assert plan.cache_key() == ((4, 5, 6, 7), 1, 3, ROW_MAJOR, "float64")

    def test_plans_are_hashable(self):
        assert len({make_plan(), make_plan()}) == 1


#: Every cached derived value and the formula it must equal.
CACHED_GEOMETRY = {
    "i_n": lambda p: p.shape[p.mode],
    "component_extent": lambda p: math.prod(
        p.shape[m] for m in p.component_modes
    ),
    "out_shape": lambda p: p.shape[: p.mode] + (p.j,) + p.shape[p.mode + 1 :],
    "out_strides": lambda p: element_strides(
        p.shape[: p.mode] + (p.j,) + p.shape[p.mode + 1 :], p.layout
    ),
    "kernel_shape": lambda p: (
        (p.j, p.shape[p.mode], math.prod(p.shape[m] for m in p.component_modes))
        if p.strategy is Strategy.FORWARD
        else (math.prod(p.shape[m] for m in p.component_modes), p.shape[p.mode], p.j)
    ),
    "np_dtype": lambda p: np.dtype(p.dtype),
    "itemsize": lambda p: np.dtype(p.dtype).itemsize,
    "kernel_working_set_bytes": lambda p: np.dtype(p.dtype).itemsize * (
        lambda m, k, n: m * k + k * n + m * n
    )(*p.kernel_shape),
    "output_bytes": lambda p: np.dtype(p.dtype).itemsize
    * math.prod(p.shape[: p.mode] + (p.j,) + p.shape[p.mode + 1 :]),
}

GEOMETRY_PLANS = (
    make_plan(),
    make_plan(dtype="float32", component_modes=(3,), loop_modes=(0, 2)),
    make_plan(
        mode=2,
        layout=COL_MAJOR,
        strategy=Strategy.BACKWARD,
        component_modes=(0, 1),
        loop_modes=(3,),
        dtype="float16",
    ),
    make_plan(component_modes=(), loop_modes=(0, 2, 3), batch_modes=(2, 3)),
)


def _warm(plan):
    for name in CACHED_GEOMETRY:
        getattr(plan, name)
    return plan


class TestCachedGeometry:
    """Geometry is derived once per plan, and the cache is invisible."""

    @pytest.mark.parametrize("plan", GEOMETRY_PLANS, ids=str)
    def test_every_cached_value_equals_its_formula(self, plan):
        for name, formula in CACHED_GEOMETRY.items():
            assert getattr(plan, name) == formula(plan), name
            assert name in vars(plan), f"{name} is not cached"

    def test_equality_and_hash_ignore_the_cache(self):
        cold, warm = make_plan(), _warm(make_plan())
        assert cold == warm and hash(cold) == hash(warm)
        fields = tuple(getattr(cold, f.name) for f in dataclasses.fields(cold))
        assert hash(warm) == hash(fields)

    def test_pickle_carries_fields_only(self):
        cold = make_plan()
        before = pickle.dumps(cold)
        warm = _warm(cold)
        assert pickle.dumps(warm) == before
        back = pickle.loads(before)
        assert back == warm
        assert set(vars(back)) == {f.name for f in dataclasses.fields(back)}

    def test_serialization_round_trip_ignores_the_cache(self):
        cold = make_plan()
        text = plans_to_json([cold])
        warm = _warm(make_plan())
        assert plan_to_dict(warm) == plan_to_dict(cold)
        assert plans_to_json([warm]) == text
        assert plan_from_dict(plan_to_dict(warm)) == cold

    def test_warm_plans_still_match_the_golden_fixture(self):
        """Plans whose geometry a real TTM has read decide as the fixture."""
        golden = json.loads(golden_path(1).read_text())
        lib = InTensLi()
        rng = np.random.default_rng(0)
        for layout in (ROW_MAJOR, COL_MAJOR):
            for shape, j, mode in DEFAULT_CASES:
                x = DenseTensor(rng.standard_normal(shape), layout)
                lib.ttm(x, rng.standard_normal((j, shape[mode])), mode)
                plan = _warm(lib.plan(shape, mode, j, layout))
                key = decision_key(shape, mode, j, layout, 1)
                assert plan_decision(plan) == golden[key], key

    def test_replace_gets_a_fresh_cache(self):
        warm = _warm(make_plan(dtype="float64"))
        swapped = dataclasses.replace(warm, dtype="float32")
        assert swapped.itemsize == 4 and warm.itemsize == 8
        assert swapped.kernel_working_set_bytes * 2 == (
            warm.kernel_working_set_bytes
        )
        kernel_only = dataclasses.replace(warm, kernel="blocked")
        assert not set(CACHED_GEOMETRY) & set(vars(kernel_only))
        assert kernel_only.out_strides == warm.out_strides


class TestViewsBlasLegal:
    def test_natural_forward_row_major_is_legal(self):
        assert make_plan().views_blas_legal

    def test_natural_backward_col_major_is_legal(self):
        plan = make_plan(
            mode=2, layout=COL_MAJOR, strategy=Strategy.BACKWARD,
            component_modes=(0, 1), loop_modes=(3,),
        )
        assert plan.views_blas_legal

    def test_cross_strategy_on_leading_mode_is_legal(self):
        # Backward on the last row-major mode: mode carries unit stride.
        plan = make_plan(
            mode=3, strategy=Strategy.BACKWARD,
            component_modes=(0, 1), loop_modes=(2,),
        )
        assert plan.views_blas_legal

    def test_wrong_side_merge_is_general_stride(self):
        # Backward strategy on a middle mode of a row-major tensor: the
        # merged run excludes the leading mode -> both strides non-unit.
        plan = make_plan(
            mode=2, strategy=Strategy.BACKWARD,
            component_modes=(0, 1), loop_modes=(3,),
        )
        assert not plan.views_blas_legal

    def test_degree_zero_vacuously_legal(self):
        plan = make_plan(component_modes=(), loop_modes=(0, 2, 3))
        assert plan.views_blas_legal

    def test_estimator_never_emits_illegal_blas_plans(self):
        from repro.core.estimator import ParameterEstimator

        est = ParameterEstimator(max_threads=2)
        for layout in (ROW_MAJOR, COL_MAJOR):
            for mode in range(4):
                plan = est.estimate((10, 11, 12, 13), mode, 4, layout)
                if plan.kernel == "blas":
                    assert plan.views_blas_legal


def _executed(lib, shape=(6, 7, 8), mode=1, j=4, layout=ROW_MAJOR):
    """A plan *lib* has run twice, so its per-plan record is built."""
    rng = np.random.default_rng(1)
    x = DenseTensor(rng.standard_normal(shape), layout)
    u = rng.standard_normal((j, shape[mode]))
    for _ in range(2):
        lib.ttm(x, u, mode)
    return lib.plan(shape, mode, j, layout), x, u


class TestCompiledRecord:
    """The per-plan kernel record is derived state, never plan state."""

    def test_record_holds_the_kernel_and_its_constants(self):
        plan, _, _ = _executed(InTensLi())
        assert "compiled" in vars(plan)
        rec = plan.compiled
        # The record is kept on the instance; compile_plan keeps nothing.
        assert plan.compiled is rec
        fresh = compile_plan(plan)
        assert fresh is not rec.fn and fresh.__source__ == rec.fn.__source__
        assert rec.counts == rec.fn.counts
        assert rec.empty_args == (plan.out_shape, plan.np_dtype, "C")
        assert rec.out_strides == plan.out_strides
        assert rec.footprint == plan_footprint_bytes(plan)
        assert rec.footprint_in_place == plan_footprint_bytes(
            plan, allocate_out=False
        )

    def test_equality_hash_replace_pickle_and_dict_ignore_it(self):
        warm, _, _ = _executed(InTensLi())
        cold = plan_from_dict(plan_to_dict(warm))
        assert "compiled" not in vars(cold)
        assert warm == cold and hash(warm) == hash(cold)
        assert plan_to_dict(warm) == plan_to_dict(cold)
        assert pickle.dumps(warm) == pickle.dumps(cold)
        for copy in (dataclasses.replace(warm), pickle.loads(pickle.dumps(warm))):
            assert copy == warm and "compiled" not in vars(copy)

    @pytest.mark.parametrize("how", ["replace", "pickle"])
    def test_a_copied_plan_rederives_the_record_and_runs(self, how):
        lib = InTensLi()
        warm, x, u = _executed(lib)
        copy = (
            dataclasses.replace(warm) if how == "replace"
            else pickle.loads(pickle.dumps(warm))
        )
        y = lib.execute(copy, x, u)
        assert "compiled" in vars(copy)
        # One kernel per plan instance; equal plans emit identical code.
        assert copy.compiled.fn is not warm.compiled.fn
        assert copy.compiled.fn.__source__ == warm.compiled.fn.__source__
        np.testing.assert_allclose(
            y.data, ttm_reference(x.data, u, 1), rtol=1e-12, atol=1e-12
        )

    def test_a_kernel_swap_gets_its_own_record(self):
        warm, x, u = _executed(InTensLi())
        blocked = dataclasses.replace(warm, kernel="blocked")
        assert "compiled" not in vars(blocked)
        assert blocked.compiled.fn is not warm.compiled.fn
        assert blocked.compiled.fn.__source__ != warm.compiled.fn.__source__


class TestEnumHashing:
    """Layout and Strategy hash by identity: cheap, and equality-consistent."""

    MEMBERS = (*Layout, *Strategy)

    @pytest.mark.parametrize("member", MEMBERS, ids=str)
    def test_copies_are_the_identical_member(self, member):
        for copy in (
            pickle.loads(pickle.dumps(member)),
            copy_module.copy(member),
            copy_module.deepcopy(member),
        ):
            assert copy is member and hash(copy) == hash(member)

    @pytest.mark.parametrize("member", MEMBERS, ids=str)
    def test_hash_is_identity_and_dicts_find_parsed_members(self, member):
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[type(member)(member.value)] == 1

    def test_plan_key_round_trip_is_unchanged(self):
        for layout in Layout:
            key = PlanKey.make((20, 20, 20), 1, 16, layout.value, 4)
            text = key.encode()
            assert text == f"20x20x20|m1|J16|{layout.name}|T4|float64"
            back = PlanKey.decode(text)
            assert back == key and hash(back) == hash(key)
            assert back.layout is layout

    @pytest.mark.parametrize("plan", GEOMETRY_PLANS, ids=str)
    def test_serialize_round_trip_is_unchanged(self, plan):
        back = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert back == plan and hash(back) == hash(plan)
        assert back.layout is plan.layout and back.strategy is plan.strategy
        assert plans_to_json([back]) == plans_to_json([plan])
