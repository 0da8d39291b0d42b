"""Error-message contracts: failures must tell the user what to do.

A performance library's errors are part of its API: the stride error
must point at the general-stride kernel, the merge error at the
contiguity requirement, the plan error at the offending field.  These
tests pin the actionable content of the key messages.
"""

import numpy as np
import pytest

from repro.core.plan import Strategy, TtmPlan
from repro.gemm import gemm_blas
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import ROW_MAJOR
from repro.tensor.views import merged_matrix_view
from repro.util.errors import LayoutError, PlanError, ShapeError, StrideError


class TestStrideErrors:
    def test_blas_error_names_the_alternative_kernel(self):
        a = np.zeros((12, 12))[::2, ::3]
        with pytest.raises(StrideError) as exc:
            gemm_blas(a, np.zeros((4, 2)))
        message = str(exc.value)
        assert "blocked" in message  # tells the user what to use instead
        assert "strides" in message


class TestMergeErrors:
    def test_non_consecutive_merge_cites_lemma(self):
        t = DenseTensor.zeros((2, 3, 4, 5))
        with pytest.raises(LayoutError) as exc:
            merged_matrix_view(t, (0, 2), (1, 3), {})
        assert "consecutive" in str(exc.value)
        assert "Lemma 4.1" in str(exc.value)

    def test_uncovered_modes_lists_them(self):
        t = DenseTensor.zeros((2, 3, 4))
        with pytest.raises(Exception) as exc:
            merged_matrix_view(t, (0,), (1,), {})
        assert "cover" in str(exc.value)


class TestPlanErrors:
    def test_bad_component_run_names_the_modes(self):
        with pytest.raises(PlanError) as exc:
            TtmPlan(
                shape=(4, 5, 6, 7),
                mode=1,
                j=2,
                layout=ROW_MAJOR,
                strategy=Strategy.FORWARD,
                component_modes=(2,),  # does not reach the last mode
                loop_modes=(0, 3),
            )
        assert "rightmost" in str(exc.value)

    def test_cover_violation_reports_sets(self):
        with pytest.raises(PlanError) as exc:
            TtmPlan(
                shape=(4, 5, 6),
                mode=1,
                j=2,
                layout=ROW_MAJOR,
                strategy=Strategy.FORWARD,
                component_modes=(2,),
                loop_modes=(),
            )
        message = str(exc.value)
        assert "M_C" in message and "M_L" in message


class TestTypeErrors:
    def test_ndarray_input_suggests_wrapping(self):
        from repro.core.inttm import ttm_inplace

        with pytest.raises(TypeError) as exc:
            ttm_inplace(np.zeros((3, 4)), np.zeros((2, 3)), 0)
        assert "DenseTensor" in str(exc.value)
        assert "layout" in str(exc.value)


class TestWarmModeValidation:
    """A plan-cache hit validates the mode exactly like a cold call.

    ``True``, ``1.0`` and ``np.int64(1)`` hash like ``1``, so a warm
    cache keyed on the raw mode would accept them once a mode-1 plan is
    cached; the fast path must answer with the cold call's typed error.
    """

    BAD_MODES = [True, 1.0, np.int64(1), -1, 3, "1"]

    @staticmethod
    def _outcome(call):
        try:
            call()
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            return type(exc), str(exc)
        return None

    @pytest.mark.parametrize("mode", BAD_MODES, ids=repr)
    def test_warm_ttm_raises_like_cold(self, mode):
        from repro.core.intensli import InTensLi

        rng = np.random.default_rng(0)
        x = DenseTensor(rng.standard_normal((4, 5, 6)))
        u = rng.standard_normal((3, 5))
        cold = self._outcome(lambda: InTensLi().ttm(x, u, mode))
        warm_lib = InTensLi()
        warm_lib.ttm(x, u, 1)
        assert warm_lib.cached_plans == 1
        warm = self._outcome(lambda: warm_lib.ttm(x, u, mode))
        assert cold is not None and cold[0] in (TypeError, ShapeError)
        assert warm == cold

    @pytest.mark.parametrize("mode", BAD_MODES, ids=repr)
    def test_warm_plan_raises_like_cold(self, mode):
        from repro.core.intensli import InTensLi

        cold = self._outcome(lambda: InTensLi().plan((4, 5, 6), mode, 3))
        warm_lib = InTensLi()
        warm_lib.plan((4, 5, 6), 1, 3)
        warm = self._outcome(lambda: warm_lib.plan((4, 5, 6), mode, 3))
        assert cold is not None and warm == cold
