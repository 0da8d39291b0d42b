"""Measurement utilities: timers, flop accounting, phase profiling.

Everything the benchmark harness reports funnels through this package so
that GFLOP/s numbers are computed the same way everywhere.
"""

from repro.perf.timing import Timer, best_of, time_callable
from repro.perf.flops import gemm_flops, gflops_rate, ttm_flops
from repro.perf.profiler import (
    HotCounters,
    PhaseProfile,
    PhaseProfiler,
    active_hot_counters,
    track_hot_path,
)
from repro.perf.machine import MachineInfo, machine_fingerprint, machine_info
from repro.perf.blasctl import blas_pinning_available, blas_threads
from repro.perf.calibrate import (
    PeakMeasurement,
    host_platform,
    measure_bandwidth,
    measure_peak,
    measure_peak_gflops,
)

__all__ = [
    "host_platform",
    "measure_bandwidth",
    "measure_peak",
    "measure_peak_gflops",
    "PeakMeasurement",
    "blas_pinning_available",
    "blas_threads",
    "Timer",
    "best_of",
    "time_callable",
    "gemm_flops",
    "gflops_rate",
    "ttm_flops",
    "HotCounters",
    "PhaseProfile",
    "PhaseProfiler",
    "active_hot_counters",
    "track_hot_path",
    "MachineInfo",
    "machine_fingerprint",
    "machine_info",
]
