"""Structured execution tracing: nested spans over the TTM pipeline.

The framework has three decision layers (estimator, exhaustive tuner,
persistent autotune cache) in front of one executor (generated code),
and the paper's whole argument is about *which* configuration those
layers pick.  A :class:`Tracer` records that as a tree of timed
**spans** — ``plan``, ``cache-lookup``, ``partition``, ``tuner-sweep``,
``execute``, ``gemm-kernel``, ``parfor-dispatch`` —
each carrying the attributes the paper's figures are drawn from (shape,
mode, layout, |M_C|, batch modes, thread split, FLOPs).

Design constraints, in order:

1. **The disabled path is near-free.**  Instrumented modules fetch the
   active tracer with one module-global read (:func:`active_tracer`)
   and branch on its ``enabled`` attribute; the default
   :data:`NULL_TRACER` never allocates, so code that is not inside a
   :func:`tracing` block pays one attribute lookup per instrumented
   call and *zero* per loop iteration (the executor opens one
   ``gemm-kernel`` span per compiled call, never one per loop index).
2. **Worker threads keep the tree intact.**  Span stacks are
   per-thread (``threading.local``), so concurrent bodies never
   corrupt each other; a worker can :meth:`Tracer.adopt` the span that
   was current when the parallel region was entered (``parfor`` does),
   or parent a span explicitly (``tracer.span(..., parent=...)``), so
   parallel bodies stay attached to the dispatching call.
3. **One snapshot surface.**  Every ``Tracer`` owns a
   :class:`repro.obs.counters.HotCounters`; entering a
   :func:`tracing` block installs it as the active counter sink, so
   spans and the existing dispatch/cache counters land in the same
   :func:`snapshot`.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.counters import (
    HotCounters,
    active_hot_counters,
    install_hot_counters,
)


@dataclass
class Span:
    """One timed, attributed region of execution.

    ``start``/``end`` are ``time.perf_counter()`` seconds (monotonic,
    process-local); ``parent_id`` is None for root spans.  ``attrs``
    holds JSON-safe key/value pairs — exporters serialize them as-is.
    """

    name: str
    span_id: int
    parent_id: int | None
    thread_id: int
    thread_name: str
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def set(self, **attrs) -> "Span":
        """Attach attributes decided mid-span (e.g. the chosen degree)."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "thread_id": self.thread_id,
            "thread_name": self.thread_name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": dict(self.attrs),
        }


class SpanCollector:
    """Thread-safe sink for finished spans (append-only, snapshot reads)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []

    def add(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """A point-in-time copy, ordered by completion time."""
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class _NullSpanContext:
    """The context manager :data:`NULL_TRACER` hands out — does nothing."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN_CONTEXT = _NullSpanContext()

#: Sentinel parent that forces a span to start a *new root tree*, no
#: matter what spans are open on the calling thread.  The serving layer
#: (:mod:`repro.serve`) executes many tenants' requests on a small pool
#: of shared worker threads; passing ``parent=ROOT`` gives each request
#: group its own span tree instead of nesting it under
#: whatever the thread happened to be doing.
ROOT = Span(
    name="<root>",
    span_id=0,
    parent_id=None,
    thread_id=0,
    thread_name="",
    start=0.0,
)


class NullTracer:
    """The default tracer: every operation is a no-op.

    ``enabled`` is False so hot paths can skip building attribute dicts
    entirely; ``span()`` still works (returning a shared null context)
    so call sites that do not branch remain correct.
    """

    enabled = False

    def span(self, name: str, parent: Span | None = None, **attrs):
        return _NULL_SPAN_CONTEXT

    def current_span(self) -> Span | None:
        return None

    def snapshot(self) -> dict:
        return {"spans": [], "counters": {}}


NULL_TRACER = NullTracer()


class Tracer:
    """Collects a tree of spans (plus hot-path counters) for one region."""

    enabled = True

    def __init__(
        self,
        collector: SpanCollector | None = None,
        counters: HotCounters | None = None,
        clock=time.perf_counter,
    ) -> None:
        self.collector = collector if collector is not None else SpanCollector()
        self.counters = counters if counters is not None else HotCounters()
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_span(self) -> Span | None:
        """The innermost open span on *this* thread (None at top level)."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs):
        """Open a nested span for the duration of a ``with`` block.

        The parent defaults to the current span of the calling thread;
        pass *parent* explicitly to attach work running on a worker
        thread to the span that dispatched it, or :data:`ROOT` to force
        a fresh root tree regardless of what this thread has open.
        """
        stack = self._stack()
        if parent is ROOT:
            parent = None
        elif parent is None and stack:
            parent = stack[-1]
        thread = threading.current_thread()
        span = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=None if parent is None else parent.span_id,
            thread_id=thread.ident or 0,
            thread_name=thread.name,
            start=self._clock(),
            attrs=dict(attrs),
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self._clock()
            stack.pop()
            self.collector.add(span)

    @contextmanager
    def adopt(self, span: Span):
        """Continue *span*, opened on another thread, on this one.

        *span* becomes this thread's current span for the block without
        being recorded again: spans opened inside nest under it, and code
        that checks ``current_span()`` sees it.
        """
        stack = self._stack()
        stack.append(span)
        try:
            yield span
        finally:
            stack.pop()

    def snapshot(self) -> dict:
        """Everything observed so far: spans + counters, one surface."""
        return {
            "spans": [s.to_dict() for s in self.collector.spans()],
            "counters": self.counters.as_dict(),
        }


_ACTIVE: NullTracer | Tracer = NULL_TRACER


def active_tracer() -> NullTracer | Tracer:
    """The tracer instrumented code reports to (NULL_TRACER when off)."""
    return _ACTIVE


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Enable tracing for a ``with`` block; yields the :class:`Tracer`.

    Also installs the tracer's :class:`HotCounters` as the active
    counter sink, so the dispatch/cache tallies recorded by existing
    instrumentation show up in the same :meth:`Tracer.snapshot`.
    Blocks nest: the previous tracer (and counter sink) is restored on
    exit.
    """
    global _ACTIVE
    if tracer is None:
        tracer = Tracer()
    previous = _ACTIVE
    _ACTIVE = tracer
    previous_counters = install_hot_counters(tracer.counters)
    try:
        yield tracer
    finally:
        _ACTIVE = previous
        install_hot_counters(previous_counters)


def snapshot() -> dict:
    """The active tracer's spans + counters (works outside tracing too).

    Inside a :func:`tracing` block this is the tracer's snapshot; outside
    one it still surfaces any counters collected by a bare
    :func:`repro.perf.profiler.track_hot_path` region, so the two
    observability entry points share one read path.
    """
    tracer = active_tracer()
    if tracer.enabled:
        return tracer.snapshot()
    counters = active_hot_counters()
    return {
        "spans": [],
        "counters": counters.as_dict() if counters is not None else {},
    }
