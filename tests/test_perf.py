"""Tests for the perf utilities (timers, flops, profiler, machine info)."""

import time
from types import SimpleNamespace

import pytest

from repro.perf import (
    MachineInfo,
    PhaseProfiler,
    Timer,
    best_of,
    gemm_flops,
    gflops_rate,
    machine_info,
    time_callable,
    ttm_flops,
)
from repro.perf import profiler as profiler_module
from repro.perf.profiler import NullProfiler


class TestTimer:
    def test_accumulates_laps(self):
        t = Timer()
        with t:
            time.sleep(0.001)
        with t:
            time.sleep(0.001)
        assert len(t.laps) == 2
        assert t.elapsed == pytest.approx(sum(t.laps))
        assert t.elapsed >= 0.002

    def test_reset(self):
        t = Timer()
        with t:
            pass
        t.reset()
        assert t.elapsed == 0.0 and t.laps == []


class TestTimeCallable:
    def test_returns_positive_minimum(self):
        calls = []
        sec = time_callable(lambda: calls.append(1), min_repeats=3,
                            min_seconds=0.0)
        assert sec >= 0.0
        assert len(calls) >= 3

    def test_min_seconds_enforced(self):
        calls = []

        def fn():
            calls.append(1)
            time.sleep(0.002)

        time_callable(fn, min_repeats=1, min_seconds=0.01)
        # sleep() may overshoot, but several repeats are still required.
        assert len(calls) >= 3

    def test_validates_repeats(self):
        with pytest.raises(ValueError):
            time_callable(lambda: None, min_repeats=0)

    def test_best_of(self):
        assert best_of(lambda: None, repeats=2) >= 0.0
        with pytest.raises(ValueError):
            best_of(lambda: None, repeats=0)


class TestFlops:
    def test_gemm_flops(self):
        assert gemm_flops(2, 3, 4) == 48

    def test_ttm_flops(self):
        assert ttm_flops((3, 4, 5), 2) == 240

    def test_gflops_rate(self):
        assert gflops_rate(2_000_000_000, 1.0) == pytest.approx(2.0)

    def test_gflops_rate_zero_time(self):
        assert gflops_rate(10, 0.0) == float("inf")
        assert gflops_rate(0, 0.0) == 0.0


class TestPhaseProfiler:
    def test_phases_accumulate(self, monkeypatch):
        # A scripted clock: each phase reads it at entry and at exit.
        ticks = iter([10.0, 10.5, 20.0, 20.25, 30.0, 30.25])
        monkeypatch.setattr(
            profiler_module, "time", SimpleNamespace(perf_counter=ticks.__next__)
        )
        prof = PhaseProfiler()
        with prof.phase("transform"):
            pass
        with prof.phase("multiply"):
            pass
        with prof.phase("transform"):
            pass
        p = prof.profile
        assert p.seconds == {"transform": 0.75, "multiply": 0.25}
        assert p.time_fraction("transform") == 0.75
        assert p.time_fraction("multiply") == 0.25

    def test_bytes_charging(self):
        prof = PhaseProfiler()
        prof.charge_bytes("transform", 100)
        prof.charge_bytes("multiply", 300)
        prof.charge_bytes("transform", 100)
        assert prof.profile.space_fraction("transform") == pytest.approx(0.4)
        assert prof.profile.total_bytes == 500

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PhaseProfiler().charge_bytes("x", -1)

    def test_empty_profile_fractions_are_zero(self):
        prof = PhaseProfiler()
        assert prof.profile.time_fraction("x") == 0.0
        assert prof.profile.space_fraction("x") == 0.0

    def test_merge(self):
        a, b = PhaseProfiler(), PhaseProfiler()
        a.charge_bytes("t", 10)
        b.charge_bytes("t", 20)
        with b.phase("t"):
            pass
        a.profile.merge(b.profile)
        assert a.profile.bytes["t"] == 30
        assert "t" in a.profile.seconds

    def test_null_profiler_discards(self):
        prof = NullProfiler()
        with prof.phase("x"):
            pass
        prof.charge_bytes("x", 10)
        assert prof.profile.total_seconds == 0.0
        assert prof.profile.total_bytes == 0


class TestMachineInfo:
    def test_introspection_populates_fields(self):
        info = machine_info()
        assert isinstance(info, MachineInfo)
        assert info.logical_cpus >= 1
        assert info.physical_cores >= 1
        assert info.llc_bytes > 0
        assert info.numpy_version

    def test_table_rows(self):
        rows = machine_info().table_rows()
        labels = [label for label, _ in rows]
        assert "CPU model" in labels
        assert "Last-level cache" in labels

    def test_as_dict(self):
        d = machine_info().as_dict()
        assert "cpu_model" in d
