"""Phase profiler: attributes time and space to named phases.

Figure 4 of the paper profiles the conventional TTM into a *transform*
phase (matricize + tensorize copies) and a *multiply* phase (the GEMM),
reporting each phase's fraction of total time and of total storage.  The
baselines in :mod:`repro.baselines` instrument themselves with this
profiler so the same breakdown can be reproduced for any input.

The TTM executor's **hot-path counters** (:class:`HotCounters`: GEMM
dispatches, batch sizes, planning, cache, resilience, tiling and
recovery events) are one vocabulary of the program's single counter
registry, :mod:`repro.obs.counters`; they are re-exported here with
their sink (:func:`active_hot_counters`, :func:`install_hot_counters`,
:func:`track_hot_path`).  They make the batched code shapes' dispatch
reduction *measurable*.  Collection is off by default (the executor
checks one module global per call), so the hot path pays nothing when
nobody is watching.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Re-exported: the hot-path counters and their sink.
from repro.obs.counters import (  # noqa: F401
    HotCounters,
    active_hot_counters,
    install_hot_counters,
    track_hot_path,
)


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
