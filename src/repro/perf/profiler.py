"""Phase profiler: attributes time and space to named phases.

Figure 4 of the paper profiles the conventional TTM into a *transform*
phase (matricize + tensorize copies) and a *multiply* phase (the GEMM),
reporting each phase's fraction of total time and of total storage.  The
baselines in :mod:`repro.baselines` instrument themselves with this
profiler so the same breakdown can be reproduced for any input.

This module also hosts the TTM executor's **hot-path counters**
(:class:`HotCounters`): lightweight tallies of GEMM dispatches, batched
calls and batch sizes.  They exist to make the batched code shapes'
dispatch reduction *measurable* — a batched plan should show the
dispatch count dropping by the batch factor while the math stays
identical.  Collection is off by default (the executor checks one module
global per call), so the hot path pays nothing when nobody is watching.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseProfile:
    """Accumulated per-phase seconds and bytes for one profiled run."""

    seconds: dict = field(default_factory=dict)
    bytes: dict = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes.values())

    def time_fraction(self, phase: str) -> float:
        """Fraction of total time spent in *phase* (0 when nothing timed)."""
        total = self.total_seconds
        return self.seconds.get(phase, 0.0) / total if total > 0 else 0.0

    def space_fraction(self, phase: str) -> float:
        """Fraction of total charged bytes attributed to *phase*."""
        total = self.total_bytes
        return self.bytes.get(phase, 0) / total if total > 0 else 0.0

    def merge(self, other: "PhaseProfile") -> "PhaseProfile":
        """Sum another profile into this one (for aggregating repeats)."""
        for phase, secs in other.seconds.items():
            self.seconds[phase] = self.seconds.get(phase, 0.0) + secs
        for phase, nbytes in other.bytes.items():
            self.bytes[phase] = self.bytes.get(phase, 0) + nbytes
        return self


class PhaseProfiler:
    """Collects phase timings/space charges during an instrumented run.

    Usage::

        prof = PhaseProfiler()
        with prof.phase("transform"):
            ...copies...
        prof.charge_bytes("transform", temp.nbytes)
        with prof.phase("multiply"):
            ...gemm...
        prof.profile.time_fraction("transform")
    """

    def __init__(self) -> None:
        self.profile = PhaseProfile()

    @contextmanager
    def phase(self, name: str):
        """Time a block and charge it to phase *name* (re-enterable)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            lap = time.perf_counter() - start
            self.profile.seconds[name] = (
                self.profile.seconds.get(name, 0.0) + lap
            )

    def charge_bytes(self, name: str, nbytes: int) -> None:
        """Attribute *nbytes* of allocated storage to phase *name*."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        self.profile.bytes[name] = self.profile.bytes.get(name, 0) + int(nbytes)


class NullProfiler(PhaseProfiler):
    """A profiler that discards everything (keeps hot paths branch-free)."""

    @contextmanager
    def phase(self, name: str):
        yield self

    def charge_bytes(self, name: str, nbytes: int) -> None:
        pass


# -- hot-path counters --------------------------------------------------------


@dataclass
class HotCounters:
    """Tallies from one instrumented region of the TTM hot path.

    ``gemm_calls`` counts 2-D GEMM dispatches (one per loop iteration on
    the per-iteration code shape); ``batched_calls`` counts batched
    matmuls and ``batched_slices`` the matrix multiplies they covered,
    so ``gemm_calls + batched_slices`` is the total GEMM work while
    ``gemm_calls + batched_calls`` is the Python-level crossings paid for
    it.  The executor adds a compiled plan's counts once per call.

    The planning layer reports here too, so a tracked region shows how
    much *deciding* happened alongside the executing: ``estimator_runs``
    counts full parameter estimations, ``tuner_sweeps`` exhaustive
    sweeps, and the ``plan_cache_*`` fields mirror the persistent
    autotune cache (:mod:`repro.autotune`) — lookups served (``hits``)
    or not (``misses``), refinement ``promotions``, and store files
    rejected as corrupt/stale/foreign (``invalidations``).
    """

    gemm_calls: int = 0
    batched_calls: int = 0
    batched_slices: int = 0
    max_batch: int = 0
    estimator_runs: int = 0
    tuner_sweeps: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    plan_cache_promotions: int = 0
    plan_cache_invalidations: int = 0
    plan_cache_evictions: int = 0
    kernel_fallbacks: int = 0
    pool_replacements: int = 0
    serial_degradations: int = 0
    watchdog_timeouts: int = 0
    store_retries: int = 0
    memory_replans: int = 0
    tiled_ttms: int = 0
    tiles_executed: int = 0
    tile_pack_bytes: int = 0
    stream_chunks: int = 0
    dse_measurements: int = 0
    calibration_refits: int = 0
    tiles_resumed: int = 0
    tiles_reverified: int = 0
    journal_commits: int = 0
    store_fsyncs: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def dispatches(self) -> int:
        """Python-level kernel dispatches (the overhead unit)."""
        return self.gemm_calls + self.batched_calls

    @property
    def total_slices(self) -> int:
        """Individual matrix multiplies executed, batched or not."""
        return self.gemm_calls + self.batched_slices

    def count_dispatches(self, counts) -> None:
        """Add one compiled call's dispatch counts.

        *counts* is a :class:`repro.core.codegen.DispatchCounts` (any
        object with its four fields), fixed when the code was generated.
        """
        with self._lock:
            self.gemm_calls += counts.gemm_calls
            self.batched_calls += counts.batched_calls
            self.batched_slices += counts.batched_slices
            if counts.max_batch > self.max_batch:
                self.max_batch = counts.max_batch

    def count_estimate(self) -> None:
        with self._lock:
            self.estimator_runs += 1

    def count_tuner_sweep(self) -> None:
        with self._lock:
            self.tuner_sweeps += 1

    def count_plan_cache(self, event: str, n: int = 1) -> None:
        """Bump one of the ``plan_cache_*`` tallies by name.

        *event* is ``"hits"``, ``"misses"``, ``"promotions"`` or
        ``"invalidations"`` — the same vocabulary
        :class:`repro.autotune.CacheStats` uses, so the cache can mirror
        its stats into an active tracking region with one call.
        """
        field_name = f"plan_cache_{event}"
        if not hasattr(self, field_name):
            raise ValueError(f"unknown plan-cache counter {event!r}")
        with self._lock:
            setattr(self, field_name, getattr(self, field_name) + n)

    #: Degradation events the resilience layer may report (each is a field).
    RESILIENCE_EVENTS = (
        "kernel_fallbacks",
        "pool_replacements",
        "serial_degradations",
        "watchdog_timeouts",
        "store_retries",
        "memory_replans",
    )

    def count_resilience(self, event: str, n: int = 1) -> None:
        """Bump one of the resilience degradation tallies by name.

        *event* is one of :data:`RESILIENCE_EVENTS` — the vocabulary the
        resilience layer (:mod:`repro.resilience`) and the supervised
        ``parfor`` use, so every degradation path increments exactly one
        named counter.
        """
        if event not in self.RESILIENCE_EVENTS:
            raise ValueError(f"unknown resilience counter {event!r}")
        with self._lock:
            setattr(self, event, getattr(self, event) + n)

    def count_tiled(self, tiles: int, pack_bytes: int = 0) -> None:
        """Report one tiled TTM execution: tile count and bytes packed.

        ``tile_pack_bytes`` measures the staging traffic tiling paid for
        non-contiguous tiles — zero when every tile ran as a pure view,
        which is the geometry the planner prefers.
        """
        with self._lock:
            self.tiled_ttms += 1
            self.tiles_executed += tiles
            self.tile_pack_bytes += pack_bytes

    def count_stream_chunk(self, n: int = 1) -> None:
        with self._lock:
            self.stream_chunks += n

    def count_recovery(self, resumed: int = 0, reverified: int = 0) -> None:
        """Report a resume pass: units re-checksummed, units skipped.

        ``tiles_reverified`` counts committed units whose landed bytes
        were re-checksummed on resume; ``tiles_resumed`` the subset that
        verified clean and were skipped — the work a crash did *not*
        throw away.  The difference is recomputed (torn/corrupt) units.
        """
        with self._lock:
            self.tiles_resumed += resumed
            self.tiles_reverified += reverified

    def count_journal_commit(self, n: int = 1) -> None:
        """Report commit records appended to a recovery journal."""
        with self._lock:
            self.journal_commits += n

    def count_store_fsync(self, n: int = 1) -> None:
        """Report durable (fsync'd) plan-store publishes."""
        with self._lock:
            self.store_fsyncs += n

    def count_dse(self, measurements: int = 1) -> None:
        """Report design-space-exploration timings taken on the live host."""
        with self._lock:
            self.dse_measurements += measurements

    def count_calibration_refit(self) -> None:
        """Report one refit of the calibrated cost model from measurements."""
        with self._lock:
            self.calibration_refits += 1

    def as_dict(self) -> dict:
        """A JSON-safe snapshot of every tally (plus the derived sums).

        ``dataclasses.asdict`` would choke on the lock field; this is the
        form :func:`repro.obs.snapshot` folds into its counter registry.
        """
        with self._lock:
            return {
                "gemm_calls": self.gemm_calls,
                "batched_calls": self.batched_calls,
                "batched_slices": self.batched_slices,
                "max_batch": self.max_batch,
                "estimator_runs": self.estimator_runs,
                "tuner_sweeps": self.tuner_sweeps,
                "plan_cache_hits": self.plan_cache_hits,
                "plan_cache_misses": self.plan_cache_misses,
                "plan_cache_promotions": self.plan_cache_promotions,
                "plan_cache_invalidations": self.plan_cache_invalidations,
                "plan_cache_evictions": self.plan_cache_evictions,
                "kernel_fallbacks": self.kernel_fallbacks,
                "pool_replacements": self.pool_replacements,
                "serial_degradations": self.serial_degradations,
                "watchdog_timeouts": self.watchdog_timeouts,
                "store_retries": self.store_retries,
                "memory_replans": self.memory_replans,
                "tiled_ttms": self.tiled_ttms,
                "tiles_executed": self.tiles_executed,
                "tile_pack_bytes": self.tile_pack_bytes,
                "stream_chunks": self.stream_chunks,
                "dse_measurements": self.dse_measurements,
                "calibration_refits": self.calibration_refits,
                "tiles_resumed": self.tiles_resumed,
                "tiles_reverified": self.tiles_reverified,
                "journal_commits": self.journal_commits,
                "store_fsyncs": self.store_fsyncs,
                "dispatches": self.gemm_calls + self.batched_calls,
                "total_slices": self.gemm_calls + self.batched_slices,
            }


_HOT_COUNTERS: HotCounters | None = None


def active_hot_counters() -> HotCounters | None:
    """The counters currently collecting, or None (the common fast case)."""
    return _HOT_COUNTERS


def install_hot_counters(counters: HotCounters | None) -> HotCounters | None:
    """Make *counters* the active sink; returns the previous one.

    The seam :func:`repro.obs.tracing` uses to fold counters and spans
    into one registry — callers must restore the returned previous sink
    (``track_hot_path`` remains the plain context-managed form).
    """
    global _HOT_COUNTERS
    previous = _HOT_COUNTERS
    _HOT_COUNTERS = counters
    return previous


@contextmanager
def track_hot_path():
    """Collect hot-path counters for the duration of a ``with`` block.

    Yields the :class:`HotCounters` being filled; instrumented code looks
    the active collector up via :func:`active_hot_counters`.  Regions do
    not nest — the innermost wins — which is fine for the benchmarking
    use this serves.
    """
    global _HOT_COUNTERS
    counters = HotCounters()
    previous = _HOT_COUNTERS
    _HOT_COUNTERS = counters
    try:
        yield counters
    finally:
        _HOT_COUNTERS = previous
