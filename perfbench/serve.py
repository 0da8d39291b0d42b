"""Workload ``serve``: a closed loop of callers on one asyncio event loop.

The callers replay ``generate_trace(default_tenants(4), pattern="stream")``
through a ``TtmServer`` with the default ``ServeConfig`` (worker threads
capped at the host's core count).  Each caller submits its next request
only after the previous one returns, so the server never sees more than
:data:`CALLERS` requests in flight and its queue cannot grow without
bound.  Latency is timed here, from submit to return.

Requests are served in rounds: each caller sends one request per round,
and the next round starts when the whole round has returned.  Without
that barrier the callers' phases drift apart and coalescing settles
into different batch sizes from run to run (mean fleet sizes of 1.6 to
2.9 and a 1.7x swing in median latency were measured); with it every
round coalesces the same way.  After each round the same products are
computed with ``tensordot`` (the floor), outside the serving clock, and
every served result is checked against them.

This is the only workload that loads admission, queueing, fleet
coalescing and the tenant-shared ``PlanCache``.
"""

from __future__ import annotations

import asyncio
import importlib
import os
import statistics
import sys
import time

import numpy as np

from harness import OpLog, clock, close, floor_ttm, front_end_layers

CALLERS = 64
#: Distinct requests generated; rounds cycle through them.
POOL = 8 * CALLERS

#: Untraced rounds behind the serving-layer metrics of a traced run, and
#: calls per signature behind each front-end timing.
PROBE_ROUNDS = 20
PROBE_REPS = 15


class Serve:
    name = "serve"

    def __init__(self, seed: int, workdir: str) -> None:
        workload = importlib.import_module("repro.serve.workload")
        trace = workload.generate_trace(
            workload.default_tenants(4), POOL, seed=seed, pattern="stream")
        rng = np.random.default_rng(seed)
        self.requests = []
        for entry in trace:
            order = "C" if entry.layout == "row" else "F"
            x = np.asarray(rng.standard_normal(entry.shape), dtype=entry.dtype,
                           order=order)
            u = rng.standard_normal(
                (entry.j, entry.shape[entry.mode])).astype(entry.dtype)
            self.requests.append((x, u, entry.mode, entry.tenant))
        self.loop = None
        self.server = None
        self.rounds = 0

    def teardown(self) -> None:
        """Stop the server (joining its worker threads) and close its loop."""
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.server = None
        if self.loop is not None:
            self.loop.close()
            self.loop = None

    def setup(self, repro) -> None:
        self.repro = repro
        serve = importlib.import_module("repro.serve")
        self.errors = importlib.import_module("repro.util.errors")
        self.tol = importlib.import_module("repro.testing").DTYPE_TOLERANCES
        config = serve.ServeConfig()
        config.workers = min(config.workers, os.cpu_count() or 1)
        self.server = serve.TtmServer(config=config)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.server.start())
        self.round()

    def _next_round(self) -> list:
        start = (self.rounds % (POOL // CALLERS)) * CALLERS
        self.rounds += 1
        return self.requests[start:start + CALLERS]

    async def _serve(self, batch):
        """One caller per request; ``(wall seconds, outcomes)``."""
        outcomes = [None] * len(batch)

        async def caller(i):
            x, u, mode, tenant = batch[i]
            start = time.perf_counter()
            try:
                result = await self.server.submit(x, u, mode, tenant=tenant)
            except self.errors.ReproError as exc:
                outcomes[i] = exc
            else:
                outcomes[i] = (time.perf_counter() - start, result)

        start = time.perf_counter()
        await asyncio.gather(*(caller(i) for i in range(len(batch))))
        return time.perf_counter() - start, outcomes

    def round(self):
        """Serve one round; ``(batch, wall seconds, outcomes)``."""
        batch = self._next_round()
        wall, outcomes = self.loop.run_until_complete(self._serve(batch))
        return batch, wall, outcomes

    def sample_op(self) -> float:
        _, _, outcomes = self.round()
        return statistics.median(o[0] for o in outcomes if isinstance(o, tuple))

    def run(self, seconds: float, probe) -> OpLog:
        """Closed-loop rounds; each request is one op."""
        log = OpLog()
        deadline = time.perf_counter() + seconds
        while log.attempted == 0 or time.perf_counter() < deadline:
            scale = probe.scale()
            batch, wall, outcomes = self.round()
            floor_s, expected = clock(
                lambda: [floor_ttm(x, u, mode) for x, u, mode, _ in batch])
            log.attempted += len(batch)
            log.add_busy(wall, scale)
            log.ratios.append(wall / floor_s)
            for outcome, ref in zip(outcomes, expected):
                if not isinstance(outcome, tuple):
                    print(f"# request failed: {outcome!r}", file=sys.stderr)
                    log.failed += 1
                elif not (outcome[1].y.data.dtype == ref.dtype
                          and close(outcome[1].y.data, ref, self.tol)):
                    log.failed += 1
                else:
                    log.op_s.append(outcome[0])
                    log.scales.append(scale)
                    log.flops += outcome[1].flops
        return log

    def layers(self) -> dict:
        before = self.server.snapshot()
        queue, execute, loop = [], [], []
        walls = 0.0
        for _ in range(PROBE_ROUNDS):
            _, wall, outcomes = self.round()
            walls += wall
            for outcome in outcomes:
                if isinstance(outcome, tuple):
                    timed, result = outcome
                    queue.append(result.queue_s)
                    execute.append(result.latency_s - result.queue_s)
                    loop.append(timed - result.latency_s)
        after = self.server.snapshot()
        stats = {k: after["stats"][k] - before["stats"][k]
                 for k in ("completed", "batches", "batched_requests",
                           "unbatched_requests", "busy_s")}
        shed = after["stats"]["shed"]["total"] - before["stats"]["shed"]["total"]
        cache_before = before["plan_cache"]["stats"]
        cache = after["plan_cache"]["stats"]
        hits = cache["hits"] - cache_before["hits"]
        lookups = hits + cache["misses"] - cache_before["misses"]
        signatures = {}
        for x, u, mode, _ in self.requests:
            key = (x.shape, mode, u.shape[0], x.dtype.name)
            signatures.setdefault(key, (self.repro.DenseTensor(x), u, mode))
        metrics = front_end_layers(self.repro, list(signatures.values()),
                                   PROBE_REPS)
        metrics.update({
            "serve.queue_ms": statistics.median(queue) * 1e3,
            "serve.exec_ms": statistics.median(execute) * 1e3,
            "serve.loop_ms": statistics.median(loop) * 1e3,
            "serve.batched_frac": stats["batched_requests"] / stats["completed"],
            "serve.mean_batch": (stats["batched_requests"]
                                 + stats["unbatched_requests"]) / stats["batches"],
            "serve.plan_hit_rate": hits / lookups if lookups else 1.0,
            "serve.busy_frac": stats["busy_s"] / (walls * self.server.config.workers),
            "serve.shed": shed,
        })
        return metrics
