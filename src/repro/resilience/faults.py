"""Deterministic fault injection for the resilience layer.

Every degradation path in this library — kernel fallback, pool
replacement, serial execution, store-read retry, memory-pressure replan
— exists because something in the hot path can fail.  Those failures are
rare by construction, so without help the degradation code would be the
least-tested code in the repository.  This module makes failure a test
input: a :class:`FaultInjector` armed with named rules is installed for
a ``with`` block, and instrumented call sites *check in* at well-known
injection points.

Named injection points (the wiring sites ship with the library):

``kernel-raise``
    Entry of every GEMM kernel (``repro.gemm.blas_like/blocked/
    reference`` and the batched fast path).  Context: ``kernel=<name>``.
``worker-death``
    ``parfor``'s submit step — fires *before* any worker is scheduled,
    simulating a pool torn down or poisoned under the caller.
``slow-body``
    Inside a ``parfor`` worker, once per pulled block — arm with a
    ``delay`` to simulate a stuck body and trip the watchdog.
``store-read-error``
    :meth:`repro.autotune.store.PlanStore.load`'s file read, and
    :func:`repro.tensor.dense.open_memmap_tensor`'s file open (context:
    ``site="memmap-open", path=<str>``).
``alloc-fail``
    The memory pre-flight guard — arming it with no ``match`` (no
    exception needed) makes the guard see zero available bytes.  The
    tiled executor additionally checks in once per tile while it
    pre-flights, with ``site="tile-scratch", tile=<i>, bytes=<n>`` (the
    tile's input and output view bytes), so a matched rule can fail tile
    *k* before any tile runs without zeroing the global budget probe
    (which passes no context).
``crash``
    Process death, for the checkpoint/restart layer
    (:mod:`repro.resilience.recovery`).  Checked at
    ``site="tile-commit"`` (tiled executor, output written but not yet
    journaled), ``site="journal-append"`` (inside
    :meth:`~repro.resilience.recovery.Journal.append`, before the
    write), ``site="chunk-commit"`` (streaming TTM) and
    ``site="sweep-end"`` (HOOI, sweep computed but not yet
    checkpointed).  A rule armed with no *exc* delivers a real
    ``SIGKILL`` to the process — the subprocess crash/resume suites are
    built on this — while a rule armed with an exception raises it
    instead, the in-process form the Hypothesis resume fuzz uses.

The disabled path is the same shape as the tracer's and the hot-path
counters': instrumented code reads one module global
(:func:`active_faults`) and skips everything when it is None, so
production runs pay a single attribute load per checkpoint and nothing
per loop iteration.

Everything is deterministic: rules fire by hit count (``after`` skips,
``times`` firings), never by randomness, so every degradation test is
exactly reproducible.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters

#: Injection points the in-tree wiring checks.  ``arm`` validates against
#: this so a typo in a test fails loudly instead of silently never firing.
INJECTION_POINTS = (
    "kernel-raise",
    "worker-death",
    "slow-body",
    "store-read-error",
    "alloc-fail",
    "crash",
)


class InjectedFault(RuntimeError):
    """Default exception type raised by an armed rule with no explicit one."""


@dataclass
class FaultRule:
    """One armed failure: where, when, and what happens.

    ``match`` filters on the context keywords the checkpoint supplies
    (e.g. ``kernel="blas"`` fires only in the BLAS kernel); an empty
    match fires everywhere the point is checked.  The rule skips its
    first *after* matching hits, then fires *times* times, then disarms.
    """

    point: str
    exc: type[BaseException] | BaseException | None = None
    delay: float = 0.0
    times: int = 1
    after: int = 0
    match: dict = field(default_factory=dict)
    hits: int = 0
    fired: int = 0

    def matches(self, ctx: dict) -> bool:
        return all(ctx.get(key) == value for key, value in self.match.items())

    def exhausted(self) -> bool:
        return self.fired >= self.times


class FaultInjector:
    """A deterministic set of armed :class:`FaultRule`\\ s.

    Thread-safe: ``parfor`` workers and the dispatching thread hit the
    same injector concurrently.  The ``fired`` log records every firing
    as ``(point, ctx)`` so tests can assert not only the outcome but
    that the intended site actually failed.
    """

    def __init__(self) -> None:
        self._rules: list[FaultRule] = []
        self._lock = threading.Lock()
        self.fired: list[tuple[str, dict]] = []

    def arm(
        self,
        point: str,
        exc: type[BaseException] | BaseException | None = None,
        delay: float = 0.0,
        times: int = 1,
        after: int = 0,
        **match,
    ) -> "FaultInjector":
        """Add a rule; returns self so arming chains fluently.

        *exc* may be an exception class or instance to raise when the
        rule fires; with no *exc* the firing is recorded (and *delay*
        slept) and :meth:`check` returns True — the form value-level
        guards like ``alloc-fail`` use.
        """
        if point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {point!r}; choose from "
                f"{INJECTION_POINTS}"
            )
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        if after < 0 or delay < 0:
            raise ValueError("after and delay must be >= 0")
        with self._lock:
            self._rules.append(
                FaultRule(
                    point=point,
                    exc=exc,
                    delay=delay,
                    times=times,
                    after=after,
                    match=dict(match),
                )
            )
        return self

    def check(self, point: str, **ctx) -> bool:
        """Fire the first live rule for *point* matching *ctx*.

        Sleeps the rule's delay, records the firing, raises the rule's
        exception if it has one, and returns True (False when nothing
        fired).  Called only from instrumented sites that already saw a
        non-None :func:`active_faults`.
        """
        with self._lock:
            rule = None
            for candidate in self._rules:
                if candidate.point != point or candidate.exhausted():
                    continue
                if not candidate.matches(ctx):
                    continue
                candidate.hits += 1
                if candidate.hits <= candidate.after:
                    continue
                candidate.fired += 1
                rule = candidate
                break
            if rule is None:
                return False
            self.fired.append((point, dict(ctx)))
            delay, exc = rule.delay, rule.exc
        # Sleep and raise outside the lock: a slow-body rule must not
        # serialize every other checkpoint behind its sleep.
        if delay:
            time.sleep(delay)
        if exc is not None:
            raise exc if isinstance(exc, BaseException) else exc(
                f"injected fault at {point!r}"
            )
        if point == "crash":
            # A crash rule with no exception is the real thing: SIGKILL,
            # uncatchable, no atexit, no finally — exactly what the
            # checkpoint/restart layer must survive.
            os.kill(os.getpid(), signal.SIGKILL)
        return True

    def count(self, point: str) -> int:
        """How many times *point* has fired so far."""
        with self._lock:
            return sum(1 for p, _ in self.fired if p == point)


_ACTIVE: FaultInjector | None = None


def active_faults() -> FaultInjector | None:
    """The installed injector, or None (the production fast path)."""
    return _ACTIVE


@contextmanager
def fault_injection(injector: FaultInjector | None = None):
    """Install *injector* (a fresh one by default) for a ``with`` block.

    Blocks nest; the previous injector is restored on exit.  Yields the
    injector so tests can arm rules and read its ``fired`` log::

        with fault_injection() as faults:
            faults.arm("kernel-raise", exc=MemoryError, kernel="blas")
            y = repro.ttm(x, u, mode=1)   # degrades to blocked, still right
            assert faults.count("kernel-raise") == 1
    """
    global _ACTIVE
    if injector is None:
        injector = FaultInjector()
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous


def record_degradation(counter: str, **span_attrs) -> None:
    """Report one degradation: bump its counter, annotate the open span.

    The shared reporting seam for every resilience path — kernel
    fallback, pool replacement, serial degradation, watchdog timeout,
    store retry, memory replan.  Both sinks are best-effort: with no
    active counters or tracer the call is two global reads.
    """
    counters = active_hot_counters()
    if counters is not None:
        counters.add(counter)
    tracer = active_tracer()
    if tracer.enabled:
        span = tracer.current_span()
        if span is not None:
            span.set(**span_attrs)
