"""Tests for the parameter estimator (figure 7 pipeline)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CORE_I7_4770K, XEON_E7_4820
from repro.core.estimator import ParameterEstimator
from repro.core.inttm import default_plan
from repro.core.partition import PAPER_THRESHOLDS
from repro.core.plan import Strategy
from repro.core.predict import predict_seconds
from repro.gemm.bench import synthetic_profile
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR, leading_mode


def make_profile(platform=CORE_I7_4770K, threads=(1, 4), m=16):
    shapes = [(m, 2**ke, 2**ne) for ke in range(6, 11) for ne in range(4, 15)]
    return synthetic_profile(shapes, platform, threads=threads)


class TestDefaults:
    def test_paper_thresholds_without_profile(self):
        est = ParameterEstimator(max_threads=4)
        assert est.thresholds_for(16) == PAPER_THRESHOLDS

    def test_validation(self):
        with pytest.raises(ValueError):
            ParameterEstimator(max_threads=0)
        with pytest.raises(ValueError):
            ParameterEstimator(pth_bytes=0)


class TestThresholdsFromProfile:
    def test_derived_and_cached(self):
        est = ParameterEstimator(profile=make_profile(), max_threads=4)
        t1 = est.thresholds_for(16)
        t2 = est.thresholds_for(16)
        assert t1 is t2
        assert t1.msth_bytes < t1.mlth_bytes

    def test_nearest_m_probe(self):
        # Profile only has m=16 points; J=13 reuses them.
        est = ParameterEstimator(profile=make_profile(), max_threads=4)
        assert est.thresholds_for(13) == est.thresholds_for(16)

    def test_profile_thread_selection_respects_budget(self):
        est = ParameterEstimator(profile=make_profile(threads=(1, 4)),
                                 max_threads=2)
        # Only t=1 points fit within a 2-thread budget.
        assert est._profile_threads() == 1

    def test_profile_threads_all_over_budget_uses_smallest(self):
        """When every profiled count exceeds the budget, the smallest
        profiled count is used anyway — closest available evidence beats
        refusing to plan (documented on ``_profile_threads``)."""
        est = ParameterEstimator(profile=make_profile(threads=(4, 8)),
                                 max_threads=1)
        assert est._profile_threads() == 4
        # And planning still works off that extrapolated window.
        t = est.thresholds_for(16)
        assert 0 < t.msth_bytes <= t.mlth_bytes


class TestThresholdCacheKeyProperties:
    """The cached window must always equal a cold computation.

    ``thresholds_for`` caches per ``(j, max_threads)``; this property
    drives a single estimator through arbitrary query sequences —
    including mutating ``max_threads`` mid-stream — and checks every
    answer against a fresh estimator with identical configuration (which
    cannot have stale cache state by construction).
    """

    @settings(max_examples=25, deadline=None)
    @given(
        queries=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=32),   # j
                st.integers(min_value=1, max_value=8),    # max_threads
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_cache_never_leaks_across_keys(self, queries):
        profile = make_profile(threads=(1, 4))
        est = ParameterEstimator(profile=profile, max_threads=1)
        for j, max_threads in queries:
            est.max_threads = max_threads
            cold = ParameterEstimator(
                profile=make_profile(threads=(1, 4)),
                max_threads=max_threads,
            )
            assert est.thresholds_for(j) == cold.thresholds_for(j)


class TestEstimate:
    @pytest.fixture()
    def estimator(self):
        return ParameterEstimator(profile=make_profile(), max_threads=4)

    def test_plan_is_valid_and_forward_for_row_major(self, estimator):
        plan = estimator.estimate((100, 100, 100), 0, 16, ROW_MAJOR)
        assert plan.strategy is Strategy.FORWARD
        assert plan.mode == 0
        assert plan.degree >= 1
        assert plan.kernel == "blas"

    def test_backward_for_col_major(self, estimator):
        plan = estimator.estimate((100, 100, 100), 2, 16, COL_MAJOR)
        assert plan.strategy is Strategy.BACKWARD
        assert plan.component_modes[0] == 0

    def test_degree_respects_threshold_window(self, estimator):
        plan = estimator.estimate((40,) * 5, 0, 16, ROW_MAJOR)
        t = estimator.thresholds_for(16)
        assert plan.kernel_working_set_bytes <= t.mlth_bytes

    def test_loop_order_increasing_row_major(self, estimator):
        plan = estimator.estimate((20, 20, 20, 20, 20), 2, 16, ROW_MAJOR)
        assert list(plan.loop_modes) == sorted(plan.loop_modes)

    def test_loop_order_decreasing_col_major(self, estimator):
        plan = estimator.estimate((20, 20, 20, 20, 20), 2, 16, COL_MAJOR)
        assert list(plan.loop_modes) == sorted(plan.loop_modes, reverse=True)

    def test_small_kernel_gets_loop_threads(self, estimator):
        # Tiny trailing dim with a long loop mode: kernel far below PTH.
        plan = estimator.estimate((64, 8, 8), 1, 4, ROW_MAJOR)
        assert plan.kernel_working_set_bytes < 800 * 1024
        assert plan.loop_modes == (0,)
        assert plan.loop_threads == 4
        assert plan.kernel_threads == 1

    def test_large_kernel_gets_kernel_threads(self, estimator):
        plan = estimator.estimate((8, 512, 512), 0, 16, ROW_MAJOR)
        if plan.kernel_working_set_bytes >= 800 * 1024:
            assert plan.kernel_threads == 4
            assert plan.loop_threads == 1

    def test_last_mode_flips_to_backward_strategy(self, estimator):
        """Mode N-1 of a row-major tensor has no trailing modes; the
        estimator flips to the backward strategy (leftmost modes), whose
        kernel is still BLAS-legal because mode N-1 carries unit stride."""
        plan = estimator.estimate((30, 30, 30), 2, 16, ROW_MAJOR)
        assert plan.strategy is Strategy.BACKWARD
        assert plan.degree >= 1
        assert plan.component_modes[0] == 0

    def test_accepts_layout_strings(self, estimator):
        plan = estimator.estimate((10, 10, 10), 0, 4, "F")
        assert plan.layout is COL_MAJOR

    def test_refinement_prefers_coarser_merge_over_loop_overhead(self):
        """With a profile available, the model prices the Python loop
        overhead and rejects degree-1 plans with huge iteration counts."""
        est = ParameterEstimator(profile=make_profile(), max_threads=1)
        plan = est.estimate((80, 80, 80, 80), 0, 16, ROW_MAJOR)
        # Degree 1 would mean 6400 loop iterations of a tiny kernel.
        assert plan.degree >= 2 or plan.loop_iterations < 1000

    def test_refinement_can_be_disabled(self):
        base = ParameterEstimator(profile=make_profile(), max_threads=1,
                                  refine_with_model=False)
        refined = ParameterEstimator(profile=make_profile(), max_threads=1,
                                     refine_with_model=True)
        p_base = base.estimate((80, 80, 80, 80), 0, 16, ROW_MAJOR)
        p_ref = refined.estimate((80, 80, 80, 80), 0, 16, ROW_MAJOR)
        # Disabled: the pure-threshold choice; refined may differ.
        assert p_base.degree >= 1
        assert p_ref.degree >= p_base.degree

    def test_refinement_skips_far_out_of_range_kernels(self):
        """Kernels far beyond the profiled grid are never selected on the
        strength of an extrapolated lookup."""
        est = ParameterEstimator(profile=make_profile(), max_threads=1)
        plan = est.estimate((8, 8, 8, 8, 8, 8, 8), 0, 16, ROW_MAJOR)
        max_n = max(p.n for p in est.profile.points)
        assert plan.kernel_shape[2] <= 8 * max_n

    def test_no_refinement_without_profile(self):
        est = ParameterEstimator(max_threads=1)  # paper thresholds only
        plan = est.estimate((40, 40, 40), 0, 16, ROW_MAJOR)
        assert plan.degree >= 1  # falls back to pure threshold logic

    def test_platform_changes_thresholds(self):
        i7 = ParameterEstimator(profile=make_profile(CORE_I7_4770K),
                                max_threads=4)
        xeon = ParameterEstimator(profile=make_profile(XEON_E7_4820),
                                  max_threads=4)
        assert i7.thresholds_for(16) != xeon.thresholds_for(16)


class TestProfileOrientation:
    """The profile fixes m = J, so a backward kernel (P x I_n) @ (I_n x J)
    is priced at its forward mirror's point (J, I_n, P)."""

    @pytest.mark.parametrize("degree", [1, 2])
    def test_backward_priced_like_its_forward_mirror(self, degree):
        profile = make_profile()
        backward = default_plan((28, 28, 28), 2, 16, ROW_MAJOR,
                                degree=degree)
        forward = default_plan((28, 28, 28), 0, 16, COL_MAJOR,
                               degree=degree)
        assert backward.strategy is Strategy.BACKWARD
        assert forward.strategy is Strategy.FORWARD
        assert backward.kernel_shape == forward.kernel_shape[::-1]
        assert predict_seconds(backward, profile) == predict_seconds(
            forward, profile
        )


class TestLeadingModeRule:
    """A product over the unit-stride mode is one contiguous GEMM."""

    @pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
    @pytest.mark.parametrize(
        "shape",
        [(28, 28, 28), (12, 10, 8, 6), (48,) * 4, (16,) * 6],
        ids=lambda s: "x".join(map(str, s)),
    )
    def test_leading_mode_plans_one_dispatch(self, shape, layout):
        est = ParameterEstimator(profile=make_profile(), max_threads=1)
        plan = est.estimate(shape, leading_mode(len(shape), layout), 16,
                            layout)
        assert plan.degree == len(shape) - 1
        assert plan.loop_modes == ()
        assert plan.gemm_dispatch_count == 1
