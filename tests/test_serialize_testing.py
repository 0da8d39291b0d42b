"""Tests for plan serialization and the public verification helpers."""

import numpy as np
import pytest

from repro.core import InTensLi, plans_from_json, plans_to_json
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.serialize import (
    load_plans,
    plan_from_dict,
    plan_to_dict,
    save_plans,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import (
    DEFAULT_CASES,
    DEGENERATE_CASES,
    assert_ttm_consistent,
    ttm_reference,
)
from repro.util.errors import PlanError


class TestPlanSerialization:
    def test_dict_roundtrip(self):
        plan = default_plan((6, 7, 8, 9), 1, 4, ROW_MAJOR, loop_threads=2,
                            kernel="blas")
        back = plan_from_dict(plan_to_dict(plan))
        assert back == plan

    def test_col_major_backward_roundtrip(self):
        plan = default_plan((6, 7, 8), 2, 4, COL_MAJOR)
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_json_roundtrip_many(self):
        plans = [
            default_plan((6, 7, 8), m, 4, ROW_MAJOR) for m in range(3)
        ]
        back = plans_from_json(plans_to_json(plans))
        assert back == plans

    def test_file_roundtrip(self, tmp_path):
        plans = [default_plan((5, 5, 5), 0, 2, ROW_MAJOR)]
        path = tmp_path / "plans.json"
        save_plans(plans, str(path))
        assert load_plans(str(path)) == plans

    def test_missing_field_raises(self):
        payload = plan_to_dict(default_plan((4, 4), 0, 2, ROW_MAJOR))
        del payload["strategy"]
        with pytest.raises(PlanError):
            plan_from_dict(payload)

    def test_corrupt_plan_is_revalidated(self):
        payload = plan_to_dict(default_plan((4, 4, 4), 0, 2, ROW_MAJOR))
        payload["component_modes"] = [0, 2]  # illegal: non-consecutive
        with pytest.raises(PlanError):
            plan_from_dict(payload)

    def test_non_list_json_rejected(self):
        with pytest.raises(PlanError):
            plans_from_json("{}")

    def test_deserialized_plan_executes(self):
        rng = np.random.default_rng(0)
        plan = plan_from_dict(
            plan_to_dict(default_plan((5, 6, 7), 1, 3, ROW_MAJOR))
        )
        x = DenseTensor(rng.standard_normal((5, 6, 7)))
        u = rng.standard_normal((3, 6))
        y = ttm_inplace(x, u, plan=plan)
        assert np.allclose(y.data, ttm_reference(x.data, u, 1))


class TestPlanSerializationProperty:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=40, deadline=None)
    @given(
        shape=st.lists(st.integers(2, 8), min_size=2, max_size=5),
        j=st.integers(1, 6),
        data=st.data(),
    )
    def test_property_random_plans_roundtrip(self, shape, j, data):
        """Any legal plan survives dict/JSON round-trips bit-identically."""
        st = self.st
        mode = data.draw(st.integers(0, len(shape) - 1))
        layout = data.draw(st.sampled_from([ROW_MAJOR, COL_MAJOR]))
        from repro.core.partition import (
            available_modes_for_strategy,
            strategy_for,
        )

        strategy = strategy_for(len(shape), mode, layout)
        available = available_modes_for_strategy(len(shape), mode, strategy)
        degree = data.draw(st.integers(0, len(available)))
        # A legal plan threads its loops or its kernel, not both.
        threads = data.draw(st.integers(1, 8))
        on_loops = data.draw(st.booleans())
        plan = default_plan(
            shape, mode, j, layout, degree=degree,
            loop_threads=threads if on_loops else 1,
            kernel_threads=1 if on_loops else threads,
            kernel=data.draw(st.sampled_from(["auto", "blas", "blocked"])),
        )
        assert plan_from_dict(plan_to_dict(plan)) == plan
        assert plans_from_json(plans_to_json([plan])) == [plan]


class TestInTensLiCachePersistence:
    def test_save_and_load_cache(self, tmp_path):
        lib = InTensLi()
        lib.plan((20, 20, 20), 0, 4)
        lib.plan((20, 20, 20), 1, 4)
        path = tmp_path / "cache.json"
        assert lib.save_plan_cache(str(path)) == 2

        fresh = InTensLi()
        assert fresh.load_plan_cache(str(path)) == 2
        assert fresh.cached_plans == 2
        # Loaded plan is used verbatim (no re-estimation).
        assert fresh.plan((20, 20, 20), 0, 4) == lib.plan((20, 20, 20), 0, 4)

    def test_loaded_plans_take_precedence(self, tmp_path):
        custom = default_plan((16, 16, 16), 0, 4, ROW_MAJOR, degree=1)
        from repro.core.serialize import save_plans

        path = tmp_path / "pinned.json"
        save_plans([custom], str(path))
        fresh = InTensLi()
        fresh.load_plan_cache(str(path))
        assert fresh.plan((16, 16, 16), 0, 4) == custom


    def test_attached_cache_holds_loaded_and_saved_plans(self, tmp_path):
        from repro.autotune import PlanCache, PlanKey, PlanStore
        from repro.core.serialize import load_plans, save_plans

        shape, mode, j = (16, 16, 16), 0, 4
        custom = default_plan(shape, mode, j, ROW_MAJOR, degree=1)
        lib = InTensLi()
        assert lib.plan(shape, mode, j) != custom
        pinned = tmp_path / "pinned.json"
        save_plans([custom], str(pinned))
        cache = PlanCache(
            store=PlanStore(str(tmp_path / "store.json")), autosave=False
        )
        fresh = InTensLi()
        fresh.attach_plan_cache(cache)
        assert fresh.load_plan_cache(str(pinned)) == 1
        assert fresh.cached_plans == 1
        assert fresh.plan(shape, mode, j) == custom
        key = PlanKey.make(shape, mode, j, ROW_MAJOR, fresh.max_threads)
        assert cache.peek(key).source == "tuned"
        saved = tmp_path / "saved.json"
        assert fresh.save_plan_cache(str(saved)) == 1
        assert load_plans(str(saved)) == [custom]


class TestPublicOracle:
    def test_reference_matches_einsum(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((4, 5, 6))
        u = rng.standard_normal((3, 5))
        assert np.allclose(
            ttm_reference(x, u, 1), np.einsum("jk,ikl->ijl", u, x)
        )

    def test_assert_consistent_passes_for_inplace(self, ttm_dtype):
        checked = assert_ttm_consistent(ttm_inplace, dtype=ttm_dtype)
        assert checked == 2 * (len(DEFAULT_CASES) + len(DEGENERATE_CASES))

    def test_assert_consistent_passes_for_inplace_float32(self):
        checked = assert_ttm_consistent(ttm_inplace, dtype="float32")
        assert checked == 2 * (len(DEFAULT_CASES) + len(DEGENERATE_CASES))

    def test_assert_consistent_catches_wrong_values(self):
        def broken(x, u, mode):
            return ttm_inplace(x, u, mode).data * 1.001

        with pytest.raises(AssertionError, match="value mismatch"):
            assert_ttm_consistent(broken)

    def test_assert_consistent_catches_wrong_shape(self):
        def broken(x, u, mode):
            return np.zeros((1, 1))

        with pytest.raises(AssertionError, match="shape mismatch"):
            assert_ttm_consistent(broken)

    def test_accepts_ndarray_returns(self):
        def as_array(x, u, mode):
            return ttm_inplace(x, u, mode).data

        assert assert_ttm_consistent(as_array) > 0
