"""Tests for the GEMM shape benchmark / profile machinery."""

import numpy as np
import pytest

from repro.analysis import CORE_I7_4770K, XEON_E7_4820
from repro.gemm import GemmProfile, ShapePoint, measure_profile, synthetic_profile
from repro.gemm.bench import default_shape_grid
from repro.util.errors import BenchmarkError


class TestShapePoint:
    def test_working_set_bytes(self):
        p = ShapePoint(m=2, k=3, n=4, threads=1, gflops=1.0)
        assert p.working_set_bytes == 8 * (6 + 12 + 8)


class TestGemmProfile:
    @pytest.fixture()
    def profile(self):
        return synthetic_profile(
            default_shape_grid(k_exponents=range(4, 9), n_exponents=range(4, 9)),
            CORE_I7_4770K,
            threads=(1, 4),
        )

    def test_exact_lookup(self, profile):
        point = profile.points[0]
        got = profile.gflops(point.m, point.k, point.n, point.threads)
        assert got == point.gflops

    def test_nearest_lookup_interpolates(self, profile):
        # 48 is between profiled 32 and 64; nearest-in-log returns one of them.
        got = profile.gflops(16, 48, 64, 1)
        lo = profile.gflops(16, 32, 64, 1)
        hi = profile.gflops(16, 64, 64, 1)
        assert got in (lo, hi)

    def test_missing_thread_count_raises(self, profile):
        with pytest.raises(BenchmarkError):
            profile.gflops(16, 16, 16, threads=7)

    def test_series_filters_and_sorts(self, profile):
        series = profile.series(m=16, k=256, threads=4)
        assert all(p.k == 256 and p.threads == 4 for p in series)
        ns = [p.n for p in series]
        assert ns == sorted(ns)

    def test_peak_gflops(self, profile):
        assert profile.peak_gflops(4) >= profile.peak_gflops(1)

    def test_peak_gflops_missing_threads(self, profile):
        with pytest.raises(BenchmarkError):
            profile.peak_gflops(9)

    def test_thread_counts(self, profile):
        assert profile.thread_counts() == (1, 4)

    def test_json_roundtrip(self, profile):
        back = GemmProfile.from_json(profile.to_json())
        assert len(back) == len(profile)
        assert back.meta == profile.meta
        p = profile.points[3]
        assert back.gflops(p.m, p.k, p.n, p.threads) == p.gflops

    def test_save_load(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        profile.save(str(path))
        assert len(GemmProfile.load(str(path))) == len(profile)

    def test_failed_save_keeps_the_previous_file(self, profile, tmp_path):
        path = tmp_path / "profile.json"
        profile.save(str(path))
        before = path.read_bytes()
        broken = GemmProfile(profile.points, {"platform": object()})
        with pytest.raises(TypeError):
            broken.save(str(path))
        assert path.read_bytes() == before
        assert len(GemmProfile.load(str(path))) == len(profile)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]

    def test_empty_profile_rejected(self):
        with pytest.raises(BenchmarkError):
            GemmProfile([])

    def test_repr(self, profile):
        assert "GemmProfile" in repr(profile)


class TestSyntheticProfile:
    def test_deterministic(self):
        shapes = [(16, 64, 64), (16, 128, 128)]
        a = synthetic_profile(shapes, CORE_I7_4770K)
        b = synthetic_profile(shapes, CORE_I7_4770K)
        assert [p.gflops for p in a.points] == [p.gflops for p in b.points]

    def test_fig8_shape_has_interior_peak(self):
        """m=16, k=512: performance rises, peaks, then declines with n."""
        shapes = [(16, 512, 2**e) for e in range(4, 16)]
        profile = synthetic_profile(shapes, CORE_I7_4770K, threads=(4,))
        series = [p.gflops for p in profile.series(threads=4)]
        peak = int(np.argmax(series))
        assert 0 < peak < len(series) - 1
        assert series[-1] < 0.8 * series[peak]
        assert series[0] < 0.8 * series[peak]

    def test_more_threads_not_slower(self):
        shapes = [(16, 512, 512)]
        p1 = synthetic_profile(shapes, CORE_I7_4770K, threads=(1,))
        p4 = synthetic_profile(shapes, CORE_I7_4770K, threads=(4,))
        assert p4.points[0].gflops >= p1.points[0].gflops

    def test_platforms_differ(self):
        shapes = [(16, 512, 512)]
        i7 = synthetic_profile(shapes, CORE_I7_4770K).points[0].gflops
        xeon = synthetic_profile(shapes, XEON_E7_4820).points[0].gflops
        assert i7 != xeon

    def test_meta_records_platform(self):
        p = synthetic_profile([(4, 4, 4)], CORE_I7_4770K)
        assert p.meta["source"] == "synthetic"
        assert "i7" in p.meta["platform"]


class TestMeasureProfile:
    def test_small_measurement_runs(self):
        profile = measure_profile(
            [(4, 8, 8), (4, 16, 16)], threads=(1,), min_seconds=0.001
        )
        assert len(profile) == 2
        assert all(p.gflops > 0 for p in profile.points)
        assert profile.meta["source"] == "measured"

    def test_multi_thread_measurement(self):
        profile = measure_profile(
            [(4, 16, 16)], threads=(1, 2), min_seconds=0.001
        )
        assert profile.thread_counts() == (1, 2)

    def test_every_point_runs_on_a_pool_of_its_thread_count(self, monkeypatch):
        # A point labelled t is timed the way a P_C = t plan runs: inside
        # blas_threads(t), t = 1 included.
        import contextlib

        from repro.perf import blasctl

        sized = []

        @contextlib.contextmanager
        def spy(n):
            sized.append(n)
            yield True

        monkeypatch.setattr(blasctl, "blas_threads", spy)
        measure_profile([(4, 16, 16)], threads=(1, 3), min_seconds=0.001)
        assert sized == [1, 3]

    def test_threaded_kernel_point_splits_into_its_thread_count(
        self, monkeypatch
    ):
        from repro.gemm import threaded

        parts = []
        row_panels = threaded._row_panels

        def spy(m, n_parts):
            parts.append(n_parts)
            return row_panels(m, n_parts)

        monkeypatch.setattr(threaded, "_row_panels", spy)
        profile = measure_profile(
            [(8, 16, 16)], threads=(4,), kernel="threaded", min_seconds=0.001
        )
        assert profile.thread_counts() == (4,)
        assert parts and set(parts) == {4}

    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            measure_profile([(0, 4, 4)], min_seconds=0.001)


class TestDefaultShapeGrid:
    def test_grid_size(self):
        grid = default_shape_grid(k_exponents=(4, 5), n_exponents=(6,))
        assert grid == [(16, 16, 64), (16, 32, 64)]
