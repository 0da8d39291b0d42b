"""Tests for mode partitioning and threshold derivation (§4.3.1)."""

import pytest

from repro.analysis import CORE_I7_4770K
from repro.core.partition import (
    PAPER_MLTH_BYTES,
    PAPER_MSTH_BYTES,
    PAPER_THRESHOLDS,
    Thresholds,
    available_modes_for_strategy,
    choose_degree,
    component_modes_for_strategy,
    derive_thresholds,
    describe_profile,
    kernel_working_set_bytes,
)
from repro.core.plan import Strategy
from repro.gemm.bench import GemmProfile, ShapePoint, synthetic_profile
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.util.errors import BenchmarkError, PlanError


FORWARD = Strategy.natural_for(ROW_MAJOR)
BACKWARD = Strategy.natural_for(COL_MAJOR)


class TestThresholds:
    def test_paper_values(self):
        assert PAPER_MSTH_BYTES == int(1.04 * 1024**2)
        assert PAPER_MLTH_BYTES == int(7.04 * 1024**2)
        assert PAPER_THRESHOLDS.kappa == 0.8

    def test_contains(self):
        t = Thresholds(100, 200)
        assert t.contains(100) and t.contains(150) and t.contains(200)
        assert not t.contains(99) and not t.contains(201)

    def test_ordering_enforced(self):
        with pytest.raises(PlanError):
            Thresholds(200, 100)

    def test_kappa_validated(self):
        with pytest.raises(ValueError):
            Thresholds(1, 2, kappa=1.5)


class TestAvailableComponentModes:
    def test_row_major_takes_trailing(self):
        assert available_modes_for_strategy(5, 1, FORWARD) == (2, 3, 4)
        assert available_modes_for_strategy(5, 4, FORWARD) == ()

    def test_col_major_takes_leading(self):
        assert available_modes_for_strategy(5, 3, BACKWARD) == (0, 1, 2)
        assert available_modes_for_strategy(5, 0, BACKWARD) == ()

    def test_lemma41_bound(self):
        """At most max(n-1, N-n) modes are mergeable (1-based lemma)."""
        for order in range(2, 6):
            for mode in range(order):
                fwd = available_modes_for_strategy(order, mode, FORWARD)
                bwd = available_modes_for_strategy(order, mode, BACKWARD)
                n1 = mode + 1  # 1-based mode
                assert max(len(fwd), len(bwd)) == max(n1 - 1, order - n1)


class TestComponentModesForDegree:
    def test_forward_anchored_at_last_mode(self):
        assert component_modes_for_strategy(5, 1, FORWARD, 2) == (3, 4)
        assert component_modes_for_strategy(5, 1, FORWARD, 3) == (2, 3, 4)

    def test_backward_anchored_at_first_mode(self):
        assert component_modes_for_strategy(5, 3, BACKWARD, 2) == (0, 1)

    def test_degree_zero(self):
        assert component_modes_for_strategy(4, 1, FORWARD, 0) == ()

    def test_out_of_range(self):
        with pytest.raises(PlanError):
            component_modes_for_strategy(4, 1, FORWARD, 3)
        with pytest.raises(PlanError):
            component_modes_for_strategy(4, 1, FORWARD, -1)


class TestKernelWorkingSet:
    def test_formula(self):
        # shape (4,5,6), mode 1, J=3, comp (2,): X_sub 5x6, U 3x5, Y_sub 3x6.
        ws = kernel_working_set_bytes((4, 5, 6), 1, 3, (2,))
        assert ws == 8 * (30 + 15 + 18)

    def test_empty_component_set(self):
        ws = kernel_working_set_bytes((4, 5, 6), 1, 3, ())
        assert ws == 8 * (5 + 15 + 3)


class TestDeriveThresholds:
    @pytest.fixture()
    def profile(self):
        shapes = [(16, 2**ke, 2**ne) for ke in range(6, 11) for ne in range(4, 15)]
        return synthetic_profile(shapes, CORE_I7_4770K, threads=(1, 4))

    def test_window_is_ordered_and_positive(self, profile):
        t = derive_thresholds(profile, 16, threads=4)
        assert 0 < t.msth_bytes <= t.mlth_bytes

    def test_window_brackets_peak_working_set(self, profile):
        """The best-performing shape's working set lies inside [MSTH, MLTH]."""
        t = derive_thresholds(profile, 16, threads=4)
        best = max(
            profile.series(m=16, threads=4), key=lambda p: p.gflops
        )
        assert t.msth_bytes <= best.working_set_bytes <= t.mlth_bytes

    def test_kappa_widens_window(self, profile):
        narrow = derive_thresholds(profile, 16, threads=4, kappa=0.95)
        wide = derive_thresholds(profile, 16, threads=4, kappa=0.5)
        assert wide.mlth_bytes >= narrow.mlth_bytes
        assert wide.msth_bytes <= narrow.msth_bytes

    def test_default_threads_is_max(self, profile):
        t_default = derive_thresholds(profile, 16)
        t_four = derive_thresholds(profile, 16, threads=4)
        assert t_default == t_four

    def test_missing_m_raises(self, profile):
        with pytest.raises(BenchmarkError):
            derive_thresholds(profile, 999, threads=4)

    def test_too_short_series_raises(self):
        points = [
            ShapePoint(16, 64, 64, 1, 10.0),
            ShapePoint(16, 64, 128, 1, 12.0),
        ]
        with pytest.raises(BenchmarkError):
            derive_thresholds(GemmProfile(points), 16, threads=1)

    def test_missing_m_error_names_the_profile(self, profile):
        with pytest.raises(BenchmarkError) as exc_info:
            derive_thresholds(profile, 999, threads=4)
        message = str(exc_info.value)
        assert "GemmProfile(" in message
        assert "m=999" in message and "threads=4" in message

    def test_all_short_series_error_names_profile_and_counts(self):
        # Two k-series, each with only 2 n-points: every series is too
        # short, and the error says which profile and how many failed.
        points = [
            ShapePoint(16, 64, 64, 1, 10.0),
            ShapePoint(16, 64, 128, 1, 12.0),
            ShapePoint(16, 128, 64, 1, 11.0),
            ShapePoint(16, 128, 128, 1, 13.0),
        ]
        with pytest.raises(BenchmarkError) as exc_info:
            derive_thresholds(GemmProfile(points), 16, threads=1)
        message = str(exc_info.value)
        assert "GemmProfile(" in message
        assert "2" in message and "fewer than 3" in message


class TestDescribeProfile:
    def test_names_source_and_point_count(self):
        shapes = [(16, 64, 2**ne) for ne in range(4, 8)]
        profile = synthetic_profile(shapes, CORE_I7_4770K)
        label = describe_profile(profile)
        assert "synthetic" in label
        assert str(len(profile)) in label

    def test_tolerates_profiles_without_meta(self):
        profile = GemmProfile([ShapePoint(16, 64, 64, 1, 10.0)])
        label = describe_profile(profile)
        assert "unknown-source" in label and "1 points" in label


class TestChooseDegree:
    def test_respects_mlth_upper_bound(self):
        # 100^5 tensor, mode 0: degrees 1..4 give P = 100..1e8.
        t = Thresholds(8 * 1024, 512 * 1024)  # tiny window
        degree = choose_degree((100,) * 5, 0, ROW_MAJOR, 16, t)
        comp = component_modes_for_strategy(5, 0, FORWARD, degree)
        ws = kernel_working_set_bytes((100,) * 5, 0, 16, comp)
        assert ws <= t.mlth_bytes
        # The next degree would overflow the window.
        comp_next = component_modes_for_strategy(5, 0, FORWARD, degree + 1)
        assert (
            kernel_working_set_bytes((100,) * 5, 0, 16, comp_next)
            > t.mlth_bytes
        )

    def test_grows_to_reach_msth(self):
        # Huge window: takes the maximal degree within MLTH.
        t = Thresholds(1024**2, 1024**3)
        degree = choose_degree((64, 64, 64, 64), 0, ROW_MAJOR, 16, t)
        assert degree == 3

    def test_minimum_degree_is_one_even_if_too_big(self):
        t = Thresholds(16, 32)  # absurdly small window
        assert choose_degree((100, 100, 100), 0, ROW_MAJOR, 16, t) == 1

    def test_last_mode_falls_back_to_backward_strategy(self):
        t = PAPER_THRESHOLDS
        # Mode N-1 row-major: forward has nothing, so the backward side is
        # used and the degree is >= 1.
        assert choose_degree((100, 100, 100), 2, ROW_MAJOR, 16, t) >= 1

    def test_order1_gives_zero(self):
        assert choose_degree((100,), 0, ROW_MAJOR, 16, PAPER_THRESHOLDS) == 0

    def test_col_major_uses_leading_modes(self):
        t = Thresholds(1024**2, 1024**3)
        degree = choose_degree((64, 64, 64, 64), 3, COL_MAJOR, 16, t)
        assert degree == 3
