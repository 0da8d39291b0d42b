"""One counter registry: declared names, one ``add``, one snapshot.

Every tally the program keeps — the TTM hot path's dispatches and
planning events (:class:`HotCounters`), the plan cache's hits and
misses (:class:`repro.autotune.CacheStats`) and the serving engine's
completions and sheds (:class:`repro.serve.ServerStats`) — is a
:class:`Counters` subclass that only *declares* its vocabulary:

* ``names`` — the counters it keeps; :meth:`Counters.add` rejects any
  other name with :class:`ValueError`;
* ``high_water`` — the names that keep the largest value added rather
  than the sum (``max_batch``);
* ``derived`` — read-only properties computed from the names, folded
  into :meth:`Counters.as_dict`.

An optional ``tenant`` label on :meth:`Counters.add` also bumps that
tenant's row; :meth:`Counters.tenant` reads a row back (zeros for a
tenant never seen, without registering it).  Declared names read as
attributes (``counters.gemm_calls``).  One lock guards every row, so
concurrent adds are exact.

The hot-path counters are off by default: instrumented code checks one
module global (:func:`active_hot_counters`) per call and skips the add
when it is None, so the hot path pays nothing when nobody is watching.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class Counters:
    """A thread-safe tally over a declared vocabulary of names."""

    names: tuple[str, ...] = ()
    high_water: tuple[str, ...] = ()
    derived: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._totals = dict.fromkeys(self.names, 0)
        self._tenants: dict[str, dict] = {}

    def add(self, name: str, n=1, tenant: str | None = None) -> None:
        """Add *n* to counter *name* (and to *tenant*'s row, if given)."""
        totals = self._totals
        if name not in totals:
            raise ValueError(f"unknown {type(self).__name__} counter {name!r}")
        high = name in self.high_water
        with self._lock:
            totals[name] = max(totals[name], n) if high else totals[name] + n
            if tenant is not None:
                row = self._tenants.get(tenant)
                if row is None:
                    row = self._tenants[tenant] = dict.fromkeys(self.names, 0)
                row[name] = max(row[name], n) if high else row[name] + n

    def __getattr__(self, name: str):
        totals = self.__dict__.get("_totals", {})
        if name in totals:
            return totals[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def _detached(self, row: dict) -> "Counters":
        copy = type(self)()
        copy._totals.update(row)
        return copy

    def tenant(self, tenant: str) -> "Counters":
        """A detached copy of *tenant*'s row (zeros when never seen)."""
        with self._lock:
            return self._detached(self._tenants.get(tenant, {}))

    def tenants(self) -> list[str]:
        """Every tenant label an add has carried, sorted."""
        with self._lock:
            return sorted(self._tenants)

    def as_dict(self) -> dict:
        """A consistent JSON-safe snapshot: every name, then the derived reads."""
        with self._lock:
            copy = self._detached(self._totals)
        return {
            **copy._totals,
            **{name: getattr(copy, name) for name in self.derived},
        }

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"{type(self).__name__}({fields})"


class HotCounters(Counters):
    """Tallies from one instrumented region of the TTM hot path.

    ``gemm_calls`` counts 2-D GEMM dispatches (one per loop iteration on
    the per-iteration code shape); ``batched_calls`` counts batched
    matmuls and ``batched_slices`` the matrix multiplies they covered,
    so ``gemm_calls + batched_slices`` is the total GEMM work while
    ``gemm_calls + batched_calls`` is the Python-level crossings paid for
    it.  The executor adds a compiled plan's counts once per call.

    The planning layer reports here too: ``estimator_runs`` counts full
    parameter estimations, ``tuner_sweeps`` exhaustive sweeps, and the
    ``plan_cache_*`` names mirror the persistent autotune cache's
    :class:`~repro.autotune.CacheStats`.  The resilience layer reports
    one name per degradation (``kernel_fallbacks`` ... ``memory_replans``),
    and the tiling, stream and recovery layers report tiles, chunks,
    resumes, journal commits and durable store publishes
    (``tile_pack_bytes`` always reads 0: every tile runs in place; it
    stays declared because the benchmark harness reads it).
    The Tucker factor solver counts every solve (``factor_solves``), the
    warm-started subspace steps it kept (``factor_warm_solves``) and the
    ones whose checks failed and fell back to a full ``eigh``
    (``factor_eigh_fallbacks``); full solves are the difference of the
    first two.
    """

    names = (
        "gemm_calls",
        "batched_calls",
        "batched_slices",
        "max_batch",
        "estimator_runs",
        "tuner_sweeps",
        "plan_cache_hits",
        "plan_cache_misses",
        "plan_cache_promotions",
        "plan_cache_invalidations",
        "plan_cache_evictions",
        "kernel_fallbacks",
        "kernel_thread_degradations",
        "pool_replacements",
        "serial_degradations",
        "watchdog_timeouts",
        "store_retries",
        "memory_replans",
        "tiled_ttms",
        "tiles_executed",
        "tile_pack_bytes",
        "stream_chunks",
        "tiles_resumed",
        "tiles_reverified",
        "journal_commits",
        "store_fsyncs",
        "factor_solves",
        "factor_warm_solves",
        "factor_eigh_fallbacks",
    )
    high_water = ("max_batch",)
    derived = ("dispatches", "total_slices")

    @property
    def dispatches(self) -> int:
        """Python-level kernel dispatches (the overhead unit)."""
        return self.gemm_calls + self.batched_calls

    @property
    def total_slices(self) -> int:
        """Individual matrix multiplies executed, batched or not."""
        return self.gemm_calls + self.batched_slices


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
    counters = HotCounters()
    previous = install_hot_counters(counters)
    try:
        yield counters
    finally:
        install_hot_counters(previous)
