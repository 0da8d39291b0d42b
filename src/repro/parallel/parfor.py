"""A chunked parallel-for over a multi-dimensional index space.

This is the reproduction of the paper's ``#pragma omp parallel for
collapse(...)`` over the loop modes ``M_L`` (Algorithm 2, line 1): the
collapsed iteration space is split into blocks and each block is executed
by one worker thread.  Loop bodies call NumPy kernels that release the
GIL, so the workers genuinely overlap; each iteration writes a disjoint
slice of the output, so no synchronization is needed.

Two properties matter for the hot path and are guaranteed here:

* **No materialization** — the flattened index space is *never* turned
  into a list.  Workers pull bounded blocks from a shared lazy iterator
  (``itertools.islice``), so memory stays O(threads x block) no matter
  how many loop iterations a plan has.
* **Pool reuse** — OpenMP runtimes keep their worker teams alive between
  parallel regions; a fresh ``ThreadPoolExecutor`` per call would pay
  thread spawn/join on every TTM.  Executors are cached per worker count
  in a module-level pool registry, start their whole team when created,
  and are reused across calls.  A ``parfor`` issued from inside a
  ``parfor`` body runs inline on the calling worker — OpenMP's default
  nesting — so no worker ever waits on a pool it belongs to.

The parallel region is **supervised** (DESIGN.md §10).  Dispatch can hit
three failure modes that would otherwise hang or crash the whole TTM,
and each has a bounded response:

* **A torn-down pool.**  ``get_pool`` can return an executor that a
  concurrent ``shutdown_pools`` is destroying; ``submit`` then raises
  ``RuntimeError``.  The stale entry is evicted, a replacement pool is
  tried once (``pool_replacements`` counter), and if that fails too the
  block runs serially (``serial_degradations``) — slower, never wrong.
  If *some* workers were submitted before the pool died, they alone
  drain the shared iterator: any nonzero worker count completes all the
  work, so a partial team is not a failure at all.
* **A stuck worker.**  ``future.result()`` waits behind a per-call
  deadline (the *timeout* argument, default ``$REPRO_PARFOR_TIMEOUT``);
  on expiry the suspect pool is evicted — its threads may be wedged
  forever and must not be handed to the next caller — and a typed
  :class:`~repro.util.errors.DeadlineError` is raised
  (``watchdog_timeouts`` counter) instead of blocking eternally.
* **Process exit.**  ``shutdown_pools`` is ``atexit``-registered, so
  persistent workers never stop the interpreter from exiting cleanly.
"""

from __future__ import annotations

import atexit
import itertools
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Callable, Sequence

from repro.obs.tracer import active_tracer
from repro.resilience.faults import active_faults, record_degradation
from repro.util.errors import DeadlineError
from repro.util.validation import check_positive_int

log = logging.getLogger("repro.parallel")

#: Upper bound on indices a worker pulls per trip to the shared iterator:
#: large enough to amortize the lock, small enough to bound memory and
#: keep the tail balanced.
_BLOCK_CAP = 1024

#: Environment variable supplying the default watchdog deadline, in
#: seconds, for every parfor call that does not pass an explicit
#: ``timeout``.  Unset, empty, or <= 0 means unsupervised (wait forever).
PARFOR_TIMEOUT_ENV = "REPRO_PARFOR_TIMEOUT"

_POOLS: dict[int, ThreadPoolExecutor] = {}
_POOLS_LOCK = threading.Lock()
#: ``in_worker`` is set on every thread that runs a parfor worker.
_WORKER = threading.local()


def iter_index_space(extents: Sequence[int]):
    """All index tuples of the given extents in odometer (C) order.

    An empty extent list yields the single empty tuple — the collapsed
    loop nest with zero loop modes still runs its body once.
    """
    return itertools.product(*(range(int(e)) for e in extents))


def get_pool(workers: int) -> ThreadPoolExecutor:
    """The persistent executor for a worker count (created, with all its
    threads, on first use)."""
    check_positive_int(workers, "workers")
    with _POOLS_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"parfor-{workers}"
            )
            # No task finishes before all *workers* have started, so each
            # submit starts a thread: later calls never start one.
            start = threading.Barrier(workers)
            for _ in range(workers):
                pool.submit(start.wait)
            _POOLS[workers] = pool
        return pool


def active_pool_count() -> int:
    """How many persistent executors currently exist (for tests/metrics)."""
    with _POOLS_LOCK:
        return len(_POOLS)


def shutdown_pools() -> None:
    """Tear down every persistent executor (tests and clean shutdown).

    Registered with :mod:`atexit` at import, so long-lived processes
    exit without waiting on (or leaking) persistent worker threads.
    """
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


atexit.register(shutdown_pools)


def _evict_pool(workers: int, pool: ThreadPoolExecutor) -> None:
    """Drop *pool* from the registry (if still registered) and retire it.

    ``wait=False``: the caller may still hold live futures on this pool
    (a partial team) or suspect its threads are wedged (a watchdog
    expiry); either way nobody can afford to block on it here.  Pending
    futures keep running to completion — shutdown only refuses new work.
    """
    with _POOLS_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=False)


def default_timeout() -> float | None:
    """The watchdog deadline from ``$REPRO_PARFOR_TIMEOUT`` (None = off)."""
    raw = os.environ.get(PARFOR_TIMEOUT_ENV)
    if not raw:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        log.warning("ignoring non-numeric %s=%r", PARFOR_TIMEOUT_ENV, raw)
        return None
    return seconds if seconds > 0 else None


def parfor(
    extents: Sequence[int],
    body: Callable[[tuple[int, ...]], None],
    threads: int = 1,
    timeout: float | None = None,
) -> int:
    """Run ``body(index)`` for every index tuple; returns iteration count.

    With ``threads == 1`` (the common case when ``P_C`` gets the threads),
    or when called from inside another ``parfor``'s body, the loop runs
    inline with zero overhead.  Otherwise up to ``threads``
    persistent workers drain the lazily flattened space in contiguous
    blocks; the first exception raised by any body propagates to the
    caller (remaining workers stop pulling new blocks).

    *timeout* is the supervision deadline in seconds for the whole
    parallel region (default from ``$REPRO_PARFOR_TIMEOUT``); a region
    that outlives it raises :class:`~repro.util.errors.DeadlineError`
    instead of hanging on a stuck worker.

    Under tracing, every body runs under the span that was current at
    the call (:meth:`repro.obs.Tracer.adopt`), on whichever thread, so
    the spans bodies open — or decline to open — nest in the caller's
    tree.
    """
    check_positive_int(threads, "threads")
    total = math.prod(int(e) for e in extents) if extents else 1
    if total == 0:
        return 0
    tracer = active_tracer()
    if tracer.enabled:
        owner = tracer.current_span()
        if owner is not None:
            inner = body

            def body(index):
                with tracer.adopt(owner):
                    inner(index)

        with tracer.span(
            "parfor-dispatch",
            extents=[int(e) for e in extents],
            iterations=total,
            threads=min(threads, total),
        ):
            return _parfor_run(extents, body, threads, total, timeout)
    return _parfor_run(extents, body, threads, total, timeout)


def _parfor_run(
    extents: Sequence[int],
    body: Callable[[tuple[int, ...]], None],
    threads: int,
    total: int,
    timeout: float | None = None,
) -> int:
    if threads == 1 or total == 1 or getattr(_WORKER, "in_worker", False):
        for index in iter_index_space(extents):
            body(index)
        return total

    n_workers = min(threads, total)
    block = min(max(1, math.ceil(total / n_workers)), _BLOCK_CAP)
    indices = iter_index_space(extents)
    feed_lock = threading.Lock()
    failed = threading.Event()
    faults = active_faults()

    def worker() -> None:
        _WORKER.in_worker = True
        while not failed.is_set():
            with feed_lock:
                batch = list(itertools.islice(indices, block))
            if not batch:
                return
            try:
                if faults is not None:
                    faults.check("slow-body")
                for index in batch:
                    body(index)
            except BaseException:
                failed.set()
                raise

    pool, futures = _supervised_submit(n_workers, worker, faults)
    if not futures:
        # Two pools died under us before any worker started: the shared
        # iterator is untouched, so the serial loop is exactly the work.
        log.warning(
            "parfor degrading to serial execution after repeated pool "
            "failures (%d iterations)", total,
        )
        record_degradation("serial_degradations", serial_degraded=True)
        for index in indices:
            body(index)
        return total

    if timeout is None:
        timeout = default_timeout()
    deadline = None if timeout is None else time.monotonic() + timeout
    for future in futures:
        if deadline is None:
            future.result()  # re-raises the first worker exception
            continue
        try:
            future.result(timeout=max(0.0, deadline - time.monotonic()))
        except _FuturesTimeout:
            failed.set()  # live workers stop pulling new blocks
            for pending in futures:
                pending.cancel()
            # The pool may hold a thread wedged forever; never hand it
            # to the next caller.
            _evict_pool(n_workers, pool)
            record_degradation(
                "watchdog_timeouts", watchdog_timeout=True,
                timeout_seconds=timeout,
            )
            raise DeadlineError(
                f"parfor exceeded its {timeout:.3g}s watchdog deadline "
                f"({total} iterations over {n_workers} workers); the "
                "worker pool was retired. Raise the timeout (argument or "
                f"${PARFOR_TIMEOUT_ENV}) if the workload is legitimately "
                "this slow"
            ) from None
    return total


def _supervised_submit(n_workers, worker, faults):
    """Submit the worker team, surviving a pool torn down concurrently.

    Returns ``(pool, futures)``.  A full or partial team is success —
    the shared iterator lets any nonzero number of workers finish all
    the work.  An empty team after one replacement attempt tells the
    caller to degrade to serial execution.
    """
    for attempt in range(2):
        pool = get_pool(n_workers)
        futures = []
        try:
            if faults is not None:
                faults.check("worker-death")
            for _ in range(n_workers):
                futures.append(pool.submit(worker))
            return pool, futures
        except RuntimeError as exc:
            # The registry handed us an executor that shutdown_pools (or
            # an injected fault) killed in flight: evict it so nobody
            # else trips on it.
            _evict_pool(n_workers, pool)
            record_degradation(
                "pool_replacements", pool_replaced=True,
                submit_error=type(exc).__name__,
            )
            log.warning(
                "parfor pool for %d workers rejected submit (%s: %s); "
                "%s", n_workers, type(exc).__name__, exc,
                "retrying with a replacement pool" if attempt == 0
                and not futures else "continuing with the partial team"
                if futures else "degrading to serial execution",
            )
            if futures:
                return pool, futures
    return pool, []
