"""Shared machinery: fresh-import set-up, interleaved timing, statistics.

Nothing here imports the program at module level.  Every set-up purges
``repro`` from ``sys.modules`` and imports it again, so each repetition
pays the program's real cold start (module import, plan estimation,
code generation) and the workload holds references only to the modules
of its latest set-up.

Every reported time is host-normalized by :class:`HostProbe`; the
measured values are printed beside them.
"""

from __future__ import annotations

import collections
import gc
import importlib
import resource
import statistics
import sys
import time

import numpy as np

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest one with at least :data:`TAIL_MIN_BEYOND` samples beyond it.
#: The steps are a decade apart so that a run's sample count, which
#: varies with host speed, stays inside one step.  There is no p99.9:
#: only ``serve`` has the 10,000 samples it needs, and its requests come
#: in rounds of 64 with shared fates, so ten of them are one bad round.
TAIL_LADDER = (99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10

#: Every end-to-end metric with its unit, in print order.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "gflops": "GFLOP/s",
    "floor_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Every per-layer metric with its unit.  A workload that bypasses a
#: layer reports 0 for that layer's metrics.
PER_LAYER_UNITS = {
    "intensli.ttm_us": "us",
    "intensli.plan_hit_us": "us",
    "intensli.plan_miss_us": "us",
    "intensli.execute_us": "us",
    "intensli.kernel_share": "ratio",
    "tensor.alloc_us": "us",
    "resilience.footprint_us": "us",
    "codegen.kernel_us": "us",
    "gemm_calls": "count",
    "batched_calls": "count",
    "estimator_runs": "count",
    "plan_cache_hits": "count",
    "plan_cache_misses": "count",
    "chain.ttm_chain_ms": "ms",
    "decomp.self_ms": "ms",
    "hooi.sweeps": "count",
    "tiling.plan_ms": "ms",
    "tiling.exec_ms": "ms",
    "tiling.untiled_ratio": "ratio",
    "stream.ms": "ms",
    "tiles_executed": "count",
    "tile_pack_bytes": "count",
    "stream_chunks": "count",
    "tiling.land_ms": "ms",
    "recovery.journal_ms": "ms",
    "journal_commits": "count",
    "store_fsyncs": "count",
    "serve.queue_ms": "ms",
    "serve.exec_ms": "ms",
    "serve.loop_ms": "ms",
    "serve.batched_frac": "ratio",
    "serve.mean_batch": "count",
    "serve.plan_hit_rate": "ratio",
    "serve.busy_frac": "ratio",
    "serve.shed": "count",
    "obs.traced_ratio": "ratio",
    "bench.input_gen_s": "s",
}

#: Hot-path counters read from the ``repro.obs.tracing()`` snapshot and
#: reported per op.  Their names are the program's own counter names.
COUNTERS = (
    "gemm_calls",
    "batched_calls",
    "estimator_runs",
    "plan_cache_hits",
    "plan_cache_misses",
    "tiles_executed",
    "tile_pack_bytes",
    "stream_chunks",
    "journal_commits",
    "store_fsyncs",
)


def floor_ttm(x: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """The bare-NumPy mode-n product: equation (1) as ``tensordot``."""
    return np.moveaxis(np.tensordot(u, x, axes=(1, mode)), 0, mode)


def close(y: np.ndarray, ref: np.ndarray, tolerances: dict) -> bool:
    """Same shape and equal within the program's tolerance for y's dtype
    (``repro.testing.DTYPE_TOLERANCES``)."""
    rtol, atol = tolerances[y.dtype.name]
    return y.shape == ref.shape and bool(
        np.all(np.abs(y - ref) <= atol + rtol * np.abs(ref)))


class HostProbe:
    """Tracks host speed with a fixed, program-independent NumPy workload.

    Shared hosts drift: where this benchmark was built, the same code ran
    at one speed for tens of seconds and up to twice as slowly for the
    next tens of seconds, and this probe slowed by about the same factor.
    Each timed step is therefore scaled by ``NOMINAL_S / t``, where ``t``
    is the median of the probe's last :data:`WINDOW` passes, one pass run
    beside every step.  Reported times read as on a host where one pass
    takes ``NOMINAL_S``; a change to the program cannot move the probe.
    """

    NOMINAL_S = 0.6e-3
    WINDOW = 5

    def __init__(self) -> None:
        rng = np.random.default_rng(20151115)
        self.cases = []
        for shape, j in (((8, 8, 8), 8), ((16, 16, 16), 8),
                         ((24, 24, 24), 16), ((32, 32, 32), 16)):
            for dtype in ("float64", "float32"):
                x = rng.standard_normal(shape).astype(dtype)
                for mode in range(3):
                    u = rng.standard_normal((j, shape[mode])).astype(dtype)
                    self.cases.append((x, u, mode))
        self.passes: list[float] = []
        self.recent = collections.deque(maxlen=self.WINDOW)

    def scale(self) -> float:
        """Run one pass; the factor that normalizes a time measured now."""
        start = time.perf_counter()
        for x, u, mode in self.cases:
            floor_ttm(x, u, mode)
        elapsed = time.perf_counter() - start
        self.passes.append(elapsed)
        self.recent.append(elapsed)
        return self.NOMINAL_S / statistics.median(self.recent)


def fresh_import():
    """Drop every ``repro`` module and import the package again."""
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            del sys.modules[name]
    return importlib.import_module("repro")


def timed_setups(workload, reps: int,
                 probe: HostProbe) -> tuple[list[float], list[float]]:
    """Set the workload up *reps* times from a fresh import.

    Returns the measured seconds of each, and the host-normalizing factor
    from the probe pass run just before each.
    """
    times, scales = [], []
    for _ in range(reps):
        workload.teardown()
        gc.collect()
        scales.append(probe.scale())
        start = time.perf_counter()
        workload.setup(fresh_import())
        times.append(time.perf_counter() - start)
    gc.collect()
    return times, scales


def clock(fn):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def median_call_us(fn, reps: int) -> float:
    """Median microseconds of *reps* individually timed calls."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e6


class OpLog:
    """Per-op timings and outcomes of one timed loop.

    ``op_s`` holds measured seconds and ``scales`` the host-normalizing
    factor that applies to each.  ``flops`` were done in ``busy_s``
    measured seconds, ``busy_scaled_s`` normalized.
    """

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.scales: list[float] = []
        self.ratios: list[float] = []
        self.flops = 0
        self.busy_s = 0.0
        self.busy_scaled_s = 0.0
        self.attempted = 0
        self.failed = 0

    def add_busy(self, seconds: float, scale: float) -> None:
        self.busy_s += seconds
        self.busy_scaled_s += seconds * scale


def run_interleaved(workload, seconds: float, probe: HostProbe) -> OpLog:
    """Closed loop of program ops, each paired with its bare-NumPy floor.

    Program and floor alternate which runs first, so slow machine phases
    hit both sides of a pair and cancel out of the per-pair ratio.  Each
    op's output is checked against its floor outside the timed region.
    """
    log = OpLog()
    deadline = time.perf_counter() + seconds
    while log.attempted == 0 or time.perf_counter() < deadline:
        scale = probe.scale()
        program_first = log.attempted % 2 == 0
        if not program_first:
            floor_s, expected = clock(workload.floor)
        try:
            op_s, got = clock(workload.op)
        except Exception as exc:  # a raised op is a counted failure
            print(f"# op raised {type(exc).__name__}: {exc}", file=sys.stderr)
            got, op_s = None, None
        if program_first:
            floor_s, expected = clock(workload.floor)
        log.attempted += 1
        if op_s is None or not workload.matches(got, expected):
            log.failed += 1
            continue
        log.op_s.append(op_s)
        log.scales.append(scale)
        log.ratios.append(op_s / floor_s)
        log.flops += workload.flops_per_op
        log.add_busy(op_s, scale)
    return log


def tail(samples: list[float]) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond)`` of the reported tail."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        beyond = int(n * (100.0 - pct) / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, ordered[n - 1 - beyond], beyond
    return 50.0, ordered[(n - 1) // 2], n - 1 - (n - 1) // 2


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_metrics(setup_s: list[float], op_s: list[float], flops: int,
                 busy_s: float) -> dict:
    pct, tail_s, beyond = tail(op_s)
    return {
        "setup_s": statistics.median(setup_s),
        "op_p50_ms": statistics.median(op_s) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "gflops": flops / busy_s / 1e9,
        "tail": (pct, beyond),
    }


def end_to_end(setup_s: list[float], setup_scales: list[float],
               log: OpLog) -> tuple[dict, dict]:
    """The end-to-end metric values, and the same from measured times.

    The first dict holds every end-to-end metric, its times normalized;
    the second the time metrics as measured, plus the tail's percentile
    and sample counts.
    """
    values = time_metrics(
        [s * k for s, k in zip(setup_s, setup_scales)],
        [s * k for s, k in zip(log.op_s, log.scales)], log.flops,
        log.busy_scaled_s)
    measured = time_metrics(setup_s, log.op_s, log.flops, log.busy_s)
    measured["samples"] = len(log.op_s)
    values.pop("tail")
    values["floor_ratio"] = statistics.median(log.ratios)
    values["peak_rss_mb"] = peak_rss_mb()
    return values, measured


def traced_loop(workload, seconds: float) -> dict:
    """Alternate untraced and traced ops; tracing cost and counters per op.

    ``obs.traced_ratio`` is the traced ÷ untraced median of
    ``workload.sample_op()`` (one op's time).  The counters are read from
    each traced op's ``repro.obs.tracing()`` snapshot.
    """
    obs = importlib.import_module("repro.obs")
    untraced: list[float] = []
    traced: list[float] = []
    totals = dict.fromkeys(COUNTERS, 0)
    deadline = time.perf_counter() + seconds
    while len(traced) < 3 or time.perf_counter() < deadline:
        untraced.append(workload.sample_op())
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            traced.append(workload.sample_op())
        counters = tracer.snapshot()["counters"]
        for name in COUNTERS:
            totals[name] += counters.get(name, 0)
    metrics = {name: total / len(traced) for name, total in totals.items()}
    metrics["obs.traced_ratio"] = (
        statistics.median(traced) / statistics.median(untraced)
    )
    return metrics


def front_end_layers(repro, cases, reps: int) -> dict:
    """Time each public call of the ``repro.ttm`` front end on *cases*.

    *cases* are ``(x: DenseTensor, u, mode)`` triples.  Each metric is
    the median of *reps* calls per case, averaged over the cases.  The
    split follows ``InTensLi.ttm``: a plan-cache hit, the output
    allocation, then ``execute`` into that output, whose core is the
    compiled kernel alone.
    """
    codegen = importlib.import_module("repro.core.codegen")
    memory = importlib.import_module("repro.resilience.memory")
    lib = repro.InTensLi()
    sums = dict.fromkeys(
        ("intensli.ttm_us", "intensli.plan_hit_us", "intensli.plan_miss_us",
         "intensli.execute_us", "tensor.alloc_us", "resilience.footprint_us",
         "codegen.kernel_us"),
        0.0,
    )
    for x, u, mode in cases:
        j = u.shape[0]
        dtype = x.data.dtype
        lib.ttm(x, u, mode)
        plan = lib.plan(x.shape, mode, j, x.layout, dtype=dtype)
        out = repro.DenseTensor.empty(plan.out_shape, plan.layout, dtype=plan.dtype)
        kernel = codegen.compile_plan(plan)
        misses = iter([repro.InTensLi() for _ in range(reps)])
        timings = {
            "intensli.ttm_us": lambda: lib.ttm(x, u, mode),
            "intensli.plan_hit_us":
                lambda: lib.plan(x.shape, mode, j, x.layout, dtype=dtype),
            "intensli.plan_miss_us":
                lambda: next(misses).plan(x.shape, mode, j, x.layout, dtype=dtype),
            "intensli.execute_us": lambda: lib.execute(plan, x, u, out=out),
            "tensor.alloc_us": lambda: repro.DenseTensor.empty(
                plan.out_shape, plan.layout, dtype=plan.dtype),
            "resilience.footprint_us": lambda: memory.plan_footprint_bytes(plan),
            "codegen.kernel_us": lambda: kernel(x.data, u, out.data),
        }
        for name, fn in timings.items():
            sums[name] += median_call_us(fn, reps)
    metrics = {name: total / len(cases) for name, total in sums.items()}
    metrics["intensli.kernel_share"] = (
        metrics["codegen.kernel_us"] / metrics["intensli.ttm_us"]
    )
    return metrics
