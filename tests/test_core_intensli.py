"""Tests for the InTensLi facade and top-level repro.ttm."""

import asyncio

import numpy as np
import pytest

import repro
from repro.analysis import XEON_E7_4820
from repro.core import InTensLi, ttm_inplace
from repro.core.chain import plan_chain
from repro.core.estimator import ParameterEstimator
from repro.gemm.bench import synthetic_profile
from repro.serve import TtmServer
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.util.errors import DtypeError, PlanError, ShapeError
from tests.helpers import FACADE_EXECUTORS, facade_ttm, ttm_oracle

#: (case, error, entry points it applies to).  A served request names no
#: plan and no output, so only the operand cases reach ``submit``.
_PLAN_ENTRIES = ("ttm_inplace", "execute")
_ALL_ENTRIES = _PLAN_ENTRIES + ("submit",)
_TYPED_ERROR_CASES = [
    ("ndarray x", TypeError, _PLAN_ENTRIES),
    ("ndarray out", TypeError, _PLAN_ENTRIES),
    ("wrong x shape", PlanError, _PLAN_ENTRIES),
    ("wrong out shape", PlanError, _PLAN_ENTRIES),
    ("wrong out dtype", DtypeError, _PLAN_ENTRIES),
    ("1-D U", ShapeError, _ALL_ENTRIES),
    ("wrong U width", ShapeError, _ALL_ENTRIES),
    ("float32 U", DtypeError, _ALL_ENTRIES),
    ("complex U", DtypeError, _ALL_ENTRIES),
]


def _submit_once(x, u, mode):
    async def scenario():
        server = TtmServer()
        await server.start()
        try:
            return await server.submit(x, u, mode)
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestConstruction:
    def test_default_builds_synthetic_profile(self):
        lib = InTensLi()
        assert lib.profile.meta["source"] == "synthetic"

    def test_measured_profile_option(self):
        lib = InTensLi(benchmark="measure", benchmark_j=(4,))
        assert lib.profile.meta["source"] == "measured"

    def test_calibrated_profile_option(self):
        lib = InTensLi(benchmark="calibrate", benchmark_j=(4,))
        assert lib.profile.meta["source"] == "synthetic"
        assert lib.profile.meta["platform"].startswith("host:")
        assert lib.plan((20, 20, 20), 0, 4).degree >= 1

    def test_explicit_profile_respected(self):
        profile = synthetic_profile([(16, 64, 64)] , XEON_E7_4820)
        lib = InTensLi(profile=profile)
        assert lib.profile is profile

    def test_invalid_options(self):
        with pytest.raises(ShapeError):
            InTensLi(benchmark="nope")
        with pytest.raises(ValueError):
            InTensLi(max_threads=0)

    @pytest.mark.parametrize("kappa", [2.0, 5, -0.1])
    def test_kappa_validated_at_construction(self, kappa):
        with pytest.raises(ValueError, match="kappa"):
            InTensLi(kappa=kappa)
        with pytest.raises(ValueError, match="kappa"):
            ParameterEstimator(kappa=kappa)


def _plan(*args):
    return InTensLi().plan(*args)


def _plan_chain(*args):
    return InTensLi().plan_chain(*args)


def _estimate(*args):
    return ParameterEstimator().estimate(*args)


class TestPlanning:
    @pytest.mark.parametrize(
        "planner, args, error",
        [
            (_plan, ((8, 2.5, 8), 0, 4), TypeError),
            (_plan, ((8, "9", 8), 0, 4), TypeError),
            (_plan, ((8, True, 8), 0, 4), TypeError),
            (_plan, ((8, -2, 8), 0, 4), ShapeError),
            (_estimate, ((8, 2.5, 8), 0, 4), TypeError),
            (_estimate, ((8, -2, 8), 0, 4), ShapeError),
            (_plan_chain, ((8, 2.5, 8), [(0, 3)]), TypeError),
            (_plan_chain, ((8, 8, 8), [(0, 2.7), (1, 3)]), TypeError),
            (_plan_chain, ((8, 8, 8), [(0.9, 3)]), TypeError),
            (plan_chain, ((8, 8, 8), [(0, 2.7)]), TypeError),
            (plan_chain, ((8, -2, 8), [(0, 3)]), ShapeError),
        ],
    )
    def test_planners_reject_non_integral_or_negative_input(
        self, planner, args, error
    ):
        """Every planner raises the same typed error instead of
        truncating a float extent, mode or J (or failing deep inside
        with an unrelated message for a negative extent)."""
        with pytest.raises(error):
            planner(*args)

    def test_plans_are_cached(self):
        lib = InTensLi()
        p1 = lib.plan((20, 20, 20), 0, 4)
        p2 = lib.plan((20, 20, 20), 0, 4)
        assert p1 is p2
        assert lib.cached_plans == 1

    def test_distinct_inputs_distinct_plans(self):
        lib = InTensLi()
        lib.plan((20, 20, 20), 0, 4)
        lib.plan((20, 20, 20), 1, 4)
        lib.plan((20, 20, 20), 0, 8)
        assert lib.cached_plans == 3

    def test_layout_part_of_key(self):
        lib = InTensLi()
        p_c = lib.plan((20, 20, 20), 1, 4, ROW_MAJOR)
        p_f = lib.plan((20, 20, 20), 1, 4, COL_MAJOR)
        assert p_c is not p_f
        assert p_f.layout is COL_MAJOR


class TestExecution:
    @pytest.mark.parametrize("executor", FACADE_EXECUTORS)
    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    def test_ttm_matches_oracle(self, executor, layout):
        rng = np.random.default_rng(22)
        lib = InTensLi(max_threads=2)
        x = DenseTensor(rng.standard_normal((6, 7, 8)), layout)
        u = rng.standard_normal((3, 7))
        y = facade_ttm(lib, x, u, 1, executor)
        assert np.allclose(y.data, ttm_oracle(x.data, u, 1))

    def test_ttm_accepts_raw_ndarray(self):
        rng = np.random.default_rng(23)
        lib = InTensLi()
        x = rng.standard_normal((5, 6, 7))
        u = rng.standard_normal((2, 6))
        y = lib.ttm(x, u, 1)
        assert np.allclose(y.data, ttm_oracle(x, u, 1))

    def test_ttm_writes_into_out(self):
        rng = np.random.default_rng(24)
        lib = InTensLi()
        x = DenseTensor(rng.standard_normal((5, 6, 7)))
        u = rng.standard_normal((2, 6))
        out = DenseTensor.empty((5, 2, 7))
        buf = out.data
        result = lib.ttm(x, u, 1, out=out)
        assert result is out and out.data is buf
        assert np.allclose(out.data, ttm_oracle(x.data, u, 1))

    def test_execute_validates_geometry(self):
        lib = InTensLi()
        plan = lib.plan((5, 6, 7), 1, 2)
        x_bad = DenseTensor.zeros((5, 6, 8))
        with pytest.raises(PlanError):
            lib.execute(plan, x_bad, np.zeros((2, 6)))
        x = DenseTensor.zeros((5, 6, 7))
        with pytest.raises(ShapeError):
            lib.execute(plan, x, np.zeros((2, 9)))
        with pytest.raises(PlanError):
            lib.execute(plan, x, np.zeros((2, 6)),
                        out=DenseTensor.zeros((5, 3, 7)))

    @pytest.mark.parametrize(
        "case, error, entry",
        [
            pytest.param(case, error, entry,
                         id=f"{case}-{error.__name__}-{entry}")
            for case, error, entries in _TYPED_ERROR_CASES
            for entry in entries
        ],
    )
    def test_entry_points_raise_the_same_typed_error(self, entry, case, error):
        lib = InTensLi()
        plan = lib.plan((4, 5, 6), 1, 3)
        x = DenseTensor.zeros((4, 5, 6))
        u = np.zeros((3, 5))
        out = None
        if case == "ndarray x":
            x = np.zeros((4, 5, 6))
        elif case == "ndarray out":
            out = np.zeros(plan.out_shape)
        elif case == "wrong x shape":
            x = DenseTensor.zeros((4, 5, 7))
        elif case == "wrong out shape":
            out = DenseTensor.zeros((4, 2, 6))
        elif case == "wrong out dtype":
            out = DenseTensor.zeros(plan.out_shape, dtype="float32")
        elif case == "1-D U":
            u = np.zeros(5)
        elif case == "wrong U width":
            u = np.zeros((3, 6))
        elif case == "float32 U":
            u = np.zeros((3, 5), dtype=np.float32)
        else:
            u = np.zeros((3, 5)) + 1j
        with pytest.raises(error) as info:
            if entry == "ttm_inplace":
                ttm_inplace(x, u, plan=plan, out=out)
            elif entry == "execute":
                lib.execute(plan, x, u, out=out)
            else:
                _submit_once(x, u, 1)
        assert type(info.value) is error

    def test_u_must_be_2d(self):
        lib = InTensLi()
        with pytest.raises(ShapeError):
            lib.ttm(DenseTensor.zeros((4, 4)), np.zeros(4), 0)


class TestTune:
    def test_tune_pins_measured_best(self):
        rng = np.random.default_rng(30)
        lib = InTensLi()
        x = DenseTensor(rng.standard_normal((10, 10, 10, 10)))
        u = rng.standard_normal((4, 10))
        best = lib.tune(x, u, 0, min_seconds=0.002)
        # The pinned plan is now what .plan() returns for this signature.
        assert lib.plan(x.shape, 0, 4) == best
        # And execution through the facade still matches the oracle.
        y = lib.ttm(x, u, 0)
        assert np.allclose(y.data, ttm_oracle(x.data, u, 0))

    def test_tuned_plan_survives_cache_roundtrip(self, tmp_path):
        rng = np.random.default_rng(31)
        lib = InTensLi()
        x = DenseTensor(rng.standard_normal((8, 8, 8)))
        u = rng.standard_normal((3, 8))
        best = lib.tune(x, u, 0, min_seconds=0.002)
        path = tmp_path / "tuned.json"
        lib.save_plan_cache(str(path))
        fresh = InTensLi()
        fresh.load_plan_cache(str(path))
        assert fresh.plan(x.shape, 0, 3) == best

    def test_tune_validates_u(self):
        lib = InTensLi()
        with pytest.raises(ShapeError):
            lib.tune(DenseTensor.zeros((4, 4)), np.zeros(4), 0)


class TestTopLevelApi:
    def test_repro_ttm(self):
        rng = np.random.default_rng(25)
        x = repro.DenseTensor(rng.standard_normal((4, 5, 6)))
        u = rng.standard_normal((2, 5))
        y = repro.ttm(x, u, 1)
        assert np.allclose(y.data, ttm_oracle(x.data, u, 1))

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_version(self):
        assert repro.__version__ == "1.0.0"
