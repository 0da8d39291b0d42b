"""The asyncio TTM serving engine: admit, group, execute in place, shed.

:class:`TtmServer` is the front-end the ROADMAP's "heavy traffic" north
star asks for.  One dispatcher coroutine drains an internal queue in
micro-batches (a bounded *batch window*), groups the requests by
dispatch signature, and hands the micro-batch to a thread pool in one
hop, where the worker runs the groups back to back, every request on
the in-place ``InTensLi.execute`` path under its group's shared plan.
Nothing is staged or copied into an unfolding: a served request costs
what a direct call costs, plus its share of the hop.

The pool has one worker by default: a serving-sized TTM holds the GIL
for most of its call, so a second worker mostly contends for it.  Raise
``ServeConfig.workers`` for products large enough that their kernels
release the GIL; a micro-batch then makes a hop per worker.

The degradation ladder, in order of preference (DESIGN.md §12):

1. **Guarded per-request execution** — every request runs through
   ``InTensLi.execute(..., allow_replan=True)``, where the memory guard
   may degrade the call to a lower-degree plan (or tile it) when the
   budget is tight, and an error fails only its own request.
2. **Load shedding** — admission control refuses work at the door, and
   queued requests whose deadline lapses before their group runs (or
   whose group has not finished when the serving watchdog trips) resolve with a typed
   :class:`~repro.util.errors.OverloadError` instead of waiting
   forever.  A shed request never returns a wrong tensor.

Planning is shared: the lib's one :class:`repro.autotune.PlanCache`
serves every tenant, with per-tenant hit/miss accounting and entry
quotas, so one tenant's warm signatures speed up every other tenant that
sends the same shapes while no tenant can monopolize the cache.

Memory-budget policy: plans are cached per signature but memory
*verdicts* are not — each group's run on the worker snapshots the budget
once via :func:`repro.resilience.memory.pinned_budget` and every guard
probe in that group reads that one number.  Flipping ``$REPRO_MEM_LIMIT``
therefore takes effect at the next group boundary, never mid-group.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.autotune.cache import PlanCache
from repro.core.intensli import InTensLi
from repro.obs.counters import Counters
from repro.obs.tracer import ROOT, active_tracer
from repro.perf.flops import ttm_flops
from repro.resilience.memory import pinned_budget
from repro.serve.admission import AdmissionController
from repro.serve.batcher import FleetSignature, coalesce
from repro.serve.request import RequestResult, TtmRequest
from repro.tensor.dense import DenseTensor
from repro.util.dtypes import match_dtype
from repro.util.errors import OverloadError, ShapeError
from repro.util.validation import check_mode, check_positive_int

log = logging.getLogger("repro.serve")

_STOP = object()


@dataclass
class ServeConfig:
    """Tunable serving policy (all knobs have safe defaults).

    ``max_batch``/``batch_window_s`` bound the micro-batching: the
    dispatcher collects at most *max_batch* requests or waits at most
    *batch_window_s* after the first arrival, whichever comes first.
    ``workers`` sizes the thread pool micro-batches run on (see the
    module docstring for why one is the default).  ``watchdog_s`` bounds
    how long the dispatcher waits on a micro-batch's hops before shedding
    its unfinished groups; None disables the watchdog.  ``tenant_cache_quota``,
    when set, is the default per-tenant entry quota of the plan cache
    the server bills.

    :class:`TtmServer` validates the policy when it is constructed.
    """

    max_inflight: int = 256
    tenant_inflight: int | None = None
    max_batch: int = 64
    batch_window_s: float = 0.002
    workers: int = 1
    default_deadline_s: float | None = None
    watchdog_s: float | None = None
    tenant_cache_quota: int | None = None
    allow_replan: bool = True
    max_threads: int = 1


def _check_config(config: ServeConfig) -> None:
    """Reject a policy that cannot serve, before anything is started."""
    check_positive_int(config.workers, "workers")
    check_positive_int(config.max_batch, "max_batch")
    if not config.batch_window_s >= 0:
        raise ValueError(
            f"batch_window_s must be >= 0, got {config.batch_window_s!r}"
        )
    # A zero or negative budget would shed every request it applies to.
    for name in ("watchdog_s", "default_deadline_s"):
        value = getattr(config, name)
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be > 0 or None, got {value!r}")


#: Each shed reason and the :class:`ServerStats` name it is counted under.
SHED_COUNTERS = {
    "admission": "shed_admission",
    "tenant-quota": "shed_tenant_quota",
    "deadline": "shed_deadline",
    "watchdog": "shed_watchdog",
}


class ServerStats(Counters):
    """Lifetime serving tallies (thread-safe; mirrored into reports).

    Completions, failures and sheds carry a ``tenant`` label, which
    yields the ``per_tenant`` rows of :meth:`as_dict`.  ``batches``
    counts the signature groups that ran (one hop may carry several) and
    ``max_batch`` the largest of them; every request that ran is
    ``unbatched_requests``, since none is staged into a batched
    multiply.  ``batched_requests`` and ``batch_fallbacks`` stay
    declared for report readers and are always 0.
    """

    names = (
        "submitted",
        "completed",
        "failed",
        *SHED_COUNTERS.values(),
        "batches",
        "batched_requests",
        "unbatched_requests",
        "max_batch",
        "batch_fallbacks",
        "completed_flops",
        "busy_s",
    )
    high_water = ("max_batch",)

    @property
    def shed_total(self) -> int:
        return sum(getattr(self, name) for name in SHED_COUNTERS.values())

    def as_dict(self) -> dict:
        flat = super().as_dict()
        shed = {
            reason: flat.pop(name) for reason, name in SHED_COUNTERS.items()
        }
        flat["shed"] = {"total": sum(shed.values()), **shed}
        flat["per_tenant"] = {}
        for tenant in self.tenants():
            row = self.tenant(tenant)
            flat["per_tenant"][tenant] = {
                "completed": row.completed,
                "shed": row.shed_total,
                "failed": row.failed,
            }
        return flat


class TtmServer:
    """Concurrent multi-tenant TTM serving on top of :class:`InTensLi`.

    Parameters
    ----------
    lib:
        The planning/execution facade requests run through; a private
        single-thread instance by default.
    config:
        Serving policy; see :class:`ServeConfig`.
    plan_cache:
        When given, attached to *lib* (its pinned plans carry over) so
        the server bills tenants against it.  Either way the server
        reads and bills *lib*'s one cache, :attr:`plan_cache`.
    """

    def __init__(
        self,
        lib: InTensLi | None = None,
        config: ServeConfig | None = None,
        plan_cache: PlanCache | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        _check_config(self.config)
        self._lib = lib or InTensLi(max_threads=self.config.max_threads)
        if plan_cache is not None:
            self._lib.attach_plan_cache(plan_cache)
        if self.config.tenant_cache_quota is not None:
            self.plan_cache.default_tenant_quota = (
                self.config.tenant_cache_quota
            )
        self.admission = AdmissionController(
            max_inflight=self.config.max_inflight,
            tenant_inflight=self.config.tenant_inflight,
        )
        self.stats = ServerStats()
        self._queue: asyncio.Queue | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._dispatcher: asyncio.Task | None = None
        self._batches: set[asyncio.Task] = set()
        self._next_id = 0
        self._running = False

    @property
    def plan_cache(self) -> PlanCache:
        """The tenant-shared cache: the lib's own :attr:`InTensLi.plan_cache`."""
        return self._lib.plan_cache

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Start the dispatcher; must run inside the serving event loop."""
        if self._running:
            raise OverloadError("server already started", reason="lifecycle")
        self._queue = asyncio.Queue()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.workers, thread_name_prefix="repro-serve"
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        self._running = True

    async def stop(self) -> None:
        """Drain in-flight work, then shut the dispatcher and pool down."""
        if not self._running:
            return
        self._running = False
        assert self._queue is not None
        await self._queue.put(_STOP)
        if self._dispatcher is not None:
            await self._dispatcher
        await asyncio.gather(*self._batches, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
        self._queue = None
        self._pool = None
        self._dispatcher = None

    # -- submission -----------------------------------------------------------

    async def submit(
        self,
        x,
        u,
        mode: int,
        *,
        tenant: str = "default",
        deadline_s: float | None = None,
        transpose_u: bool = False,
    ) -> RequestResult:
        """Serve one TTM request; resolves when the product is computed.

        Raises :class:`OverloadError` when the request is shed
        (admission, tenant quota, deadline, watchdog) and the usual
        typed validation errors for malformed operands.  *deadline_s*
        is a relative latency budget in seconds (None: the config
        default, which may also be None for no deadline).
        """
        if not self._running or self._queue is None:
            raise OverloadError("server is not running", reason="lifecycle")
        if not isinstance(x, DenseTensor):
            x = DenseTensor(x)
        u = match_dtype(u, x.data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D, got {u.ndim}-D")
        if transpose_u:
            u = u.T
        # Planning would refuse J = 0 on the worker side, where the error
        # could never reach this caller.
        check_positive_int(u.shape[0], "j")
        mode = check_mode(mode, x.order)
        if u.shape[1] != x.shape[mode]:
            raise ShapeError(
                f"U columns {u.shape[1]} != tensor extent {x.shape[mode]} "
                f"at mode {mode}"
            )
        budget = (
            deadline_s
            if deadline_s is not None
            else self.config.default_deadline_s
        )
        try:
            self.admission.admit(tenant)
        except OverloadError as exc:
            self.stats.add(
                SHED_COUNTERS.get(exc.reason, exc.reason), tenant=tenant
            )
            raise
        now = time.perf_counter()
        self._next_id += 1
        request = TtmRequest(
            tenant=tenant,
            x=x,
            u=u,
            mode=mode,
            request_id=self._next_id,
            arrival_s=now,
            deadline_s=None if budget is None else now + budget,
            future=asyncio.get_running_loop().create_future(),
        )
        self.stats.add("submitted")
        try:
            self._queue.put_nowait(request)
            return await request.future
        finally:
            self.admission.release(tenant)

    # -- dispatch -------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None
        stopping = False
        while not stopping:
            first = await self._queue.get()
            if first is _STOP:
                break
            batch = [first]
            stopping = self._drain_into(batch)
            if (
                not stopping
                and len(batch) < self.config.max_batch
                and self.config.batch_window_s > 0
            ):
                await asyncio.sleep(self.config.batch_window_s)
                stopping = self._drain_into(batch)
            task = asyncio.create_task(self._run_batch(coalesce(batch)))
            self._batches.add(task)
            task.add_done_callback(self._batches.discard)

    def _drain_into(self, batch: list) -> bool:
        """Move queued requests into *batch* (no await); True on _STOP."""
        assert self._queue is not None
        while len(batch) < self.config.max_batch:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _STOP:
                return True
            batch.append(item)
        return False

    async def _run_batch(self, groups: list) -> None:
        """Drop expired requests and plan each group, run the live groups
        on ``min(workers, groups)`` executor hops that pull them from one
        shared deque, then resolve them all in one pass.  When the
        watchdog trips, only the groups that have not finished shed."""
        now = time.perf_counter()
        work = []
        for sig, group in groups:
            live = []
            for request in group:
                if request.expired(now):
                    self._shed(request, "deadline")
                else:
                    live.append(request)
            if live:
                work.append((sig, live, self._plan_for(sig, live)))
        if not work:
            return
        todo = deque(range(len(work)))
        results = [None] * len(work)  # filled in by the workers
        run = asyncio.get_running_loop().run_in_executor
        hops = [
            run(self._pool, self._execute_batch, work, todo, results, now)
            for _ in range(min(self.config.workers, len(work)))
        ]
        await asyncio.wait(hops, timeout=self.config.watchdog_s)
        # The worker threads cannot be killed, but their waiters can be
        # released: withdraw the groups not yet taken, then read what
        # finished.  A group that finishes later is discarded.
        todo.clear()
        results = list(results)
        end = time.perf_counter()
        for (sig, live, _), outcomes in zip(work, results):
            if outcomes is None:
                # Only a hop past the watchdog leaves a group unfinished.
                log.warning(
                    "serving watchdog (%.3gs) tripped on batch %s x%d; "
                    "shedding its requests",
                    self.config.watchdog_s,
                    sig.describe(),
                    len(live),
                )
                for request in live:
                    self._shed(request, "watchdog")
                continue
            # Every request in a group has the signature's shape and J.
            flops = ttm_flops(sig.shape, sig.j)
            completed = Counter()
            for request, y in zip(live, outcomes):
                if y is None:
                    self._shed(request, "deadline")
                elif isinstance(y, BaseException):
                    self.stats.add("failed", tenant=request.tenant)
                    if not request.future.done():
                        request.future.set_exception(y)
                else:
                    completed[request.tenant] += 1
                    if not request.future.done():
                        request.future.set_result(
                            RequestResult(
                                request_id=request.request_id,
                                tenant=request.tenant,
                                y=y,
                                latency_s=end - request.arrival_s,
                                queue_s=now - request.arrival_s,
                                batch_size=len(live),
                                batched=False,
                                flops=flops,
                            )
                        )
            for tenant, n in completed.items():
                self.stats.add("completed", n, tenant=tenant)
            self.stats.add("completed_flops", flops * completed.total())

    def _shed(self, request: TtmRequest, reason: str) -> None:
        self.stats.add(SHED_COUNTERS.get(reason, reason), tenant=request.tenant)
        if not request.future.done():
            request.future.set_exception(
                OverloadError(
                    f"request {request.request_id} shed ({reason})",
                    reason=reason,
                    tenant=request.tenant,
                )
            )

    # -- planning -------------------------------------------------------------

    def _plan_for(self, sig: FleetSignature, requests: list):
        """The shared plan for a signature, billed per requesting tenant.

        One read of the lib's cache serves the whole group, and each
        request is billed as one lookup (a hit or a miss) to its tenant,
        so per-tenant hit rates stay exact.  On a miss the lib's
        estimator plans once and the entry is charged to the first
        request's tenant, against that tenant's quota.
        """
        cache = self.plan_cache
        threads = self._lib.max_threads
        plan = cache.lookup(
            sig.shape, sig.mode, sig.j, sig.layout, threads, sig.dtype
        )
        event = "hits" if plan is not None else "misses"
        for tenant, n in Counter(r.tenant for r in requests).items():
            cache.count(event, n, tenant=tenant)
        if plan is not None:
            return plan
        plan = self._lib.estimator.estimate(
            sig.shape, sig.mode, sig.j, sig.layout, dtype=sig.dtype
        )
        cache.keep(plan, threads, tenant=requests[0].tenant)
        return plan

    # -- execution (worker threads) -------------------------------------------

    def _execute_batch(self, work, todo, results, dispatched_s) -> None:
        """Run the ``(signature, requests, plan)`` groups of *work* whose
        indices this hop pops from *todo*, each one's outcomes into
        *results* (deque pops and list stores are atomic)."""
        while True:
            try:
                i = todo.popleft()
            except IndexError:
                return
            sig, requests, plan = work[i]
            results[i] = self._execute_group(sig, requests, plan, dispatched_s)

    def _execute_group(self, sig, requests, plan, dispatched_s):
        start = time.perf_counter()
        tracer = active_tracer()
        try:
            if not tracer.enabled:
                return self._execute_group_impl(requests, plan)
            with tracer.span(
                "serve-batch",
                parent=ROOT,
                batch=len(requests),
                signature=sig.describe(),
                tenants=sorted({r.tenant for r in requests}),
            ) as span:
                results = self._execute_group_impl(requests, plan)
                span.set(
                    failed=sum(
                        1 for r in results if isinstance(r, BaseException)
                    )
                )
                for request in requests:
                    # Zero-duration leaves carrying each request's
                    # telemetry, so one batch renders as a tree with one
                    # node per tenant request.
                    with tracer.span(
                        "request",
                        tenant=request.tenant,
                        request_id=request.request_id,
                        queue_s=dispatched_s - request.arrival_s,
                    ):
                        pass
                return results
        finally:
            self.stats.add("busy_s", time.perf_counter() - start)

    def _execute_group_impl(self, requests, plan):
        """Run each request of one group in place under the group's plan.

        Returns one outcome per request: its product, the error it
        raised, or None when the deadline re-check shed it.
        """
        # Deadlines are re-checked here, on the worker, once per group: a
        # request may wait behind the earlier groups of its hop or other
        # hops, and work that already missed its budget is dropped.
        now = time.perf_counter()
        outcomes = []
        ran = 0
        # One budget snapshot per group: every guard probe in the group
        # reads the same number (thread-local, so concurrent workers
        # don't share pins).  The default call-time re-read policy
        # resumes when the group finishes — see the policy note in
        # ``repro.resilience.memory``.
        with pinned_budget():
            for request in requests:
                if request.expired(now):
                    outcomes.append(None)
                    continue
                ran += 1
                try:
                    outcomes.append(
                        self._lib.execute(
                            plan,
                            request.x,
                            request.u,
                            allow_replan=self.config.allow_replan,
                        )
                    )
                except Exception as exc:
                    # One that escaped would strand the whole hop.
                    outcomes.append(exc)
        if ran:
            self.stats.add("batches")
            self.stats.add("unbatched_requests", ran)
            self.stats.add("max_batch", len(requests))
        return outcomes

    # -- reporting ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Everything observable about this server, JSON-safe."""
        return {
            "stats": self.stats.as_dict(),
            "admission": self.admission.snapshot(),
            "plan_cache": {
                "entries": len(self.plan_cache),
                "stats": self.plan_cache.stats.as_dict(),
                "hit_rate": self.plan_cache.stats.hit_rate,
                "per_tenant": {
                    tenant: self.plan_cache.tenant_stats(tenant).as_dict()
                    for tenant in self.plan_cache.tenants()
                },
            },
        }
