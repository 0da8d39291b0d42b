"""Tests for the multi-tenant TTM serving engine (``repro.serve``).

Covers the serving contract end to end: admission control bounds what
the server takes on (server-wide and per-tenant), every served product
matches the equation-(1) reference across the shared case grid, each
micro-batch costs one executor hop per worker, the shared plan cache
enforces per-tenant quotas with exact per-tenant hit accounting under
concurrent readers, the serving policy is validated up front, and the
degradation ladder sheds load with typed ``OverloadError``\\ s —
deadlines under an injected slow kernel and the serving watchdog —
while memory pressure still serves every request through the guarded
in-place path.
"""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.autotune import CacheStats, PlanCache, PlanKey, PlanStore
from repro.baselines import ttm_copy
from repro.core.inttm import default_plan
from repro.obs import ROOT, Tracer, tracing
from repro.perf.profiler import track_hot_path
from repro.resilience import FaultInjector, fault_injection
from repro.serve import (
    AdmissionController,
    OverloadError,
    ServeConfig,
    TtmServer,
    coalesce,
)
from repro.serve.request import TtmRequest
from repro.serve.workload import (
    TraceEntry,
    default_tenants,
    generate_trace,
    load_trace,
    materialize,
    replay,
    save_trace,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.testing import (
    DEFAULT_CASES,
    DEGENERATE_CASES,
    DTYPE_TOLERANCES,
    ttm_reference,
)
from repro.util.errors import ShapeError


def run(coro):
    return asyncio.run(coro)


def make_request(shape, mode, j, seed=0, tenant="t", dtype=np.float32,
                 layout=Layout.ROW_MAJOR):
    rng = np.random.default_rng(seed)
    order = "C" if layout is Layout.ROW_MAJOR else "F"
    data = np.asarray(
        rng.standard_normal(shape).astype(dtype), order=order
    )
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    return TtmRequest(
        tenant=tenant, x=DenseTensor(data, layout), u=u, mode=mode,
        request_id=seed,
    )


async def serving(config=None, **kwargs):
    server = TtmServer(config=config or ServeConfig(**kwargs))
    await server.start()
    return server


# -- admission control ---------------------------------------------------------


class TestAdmission:
    def test_server_wide_cap(self):
        ctl = AdmissionController(max_inflight=2)
        ctl.admit("a")
        ctl.admit("b")
        with pytest.raises(OverloadError) as info:
            ctl.admit("c")
        assert info.value.reason == "admission"
        assert info.value.tenant == "c"
        ctl.release("a")
        ctl.admit("c")  # slot freed; admits again
        assert ctl.inflight == 2
        assert ctl.admitted == 3
        assert ctl.rejected["admission"] == 1

    def test_per_tenant_quota(self):
        ctl = AdmissionController(max_inflight=10, tenant_inflight=2)
        ctl.admit("greedy")
        ctl.admit("greedy")
        with pytest.raises(OverloadError) as info:
            ctl.admit("greedy")
        assert info.value.reason == "tenant-quota"
        assert info.value.tenant == "greedy"
        # Other tenants still clear admission: the quota isolates, it
        # does not shut the door.
        ctl.admit("polite")
        assert ctl.tenant_load("greedy") == 2
        assert ctl.tenant_load("polite") == 1
        assert ctl.rejected["tenant-quota"] == 1

    def test_release_without_admit_is_typed(self):
        ctl = AdmissionController()
        with pytest.raises(OverloadError):
            ctl.release("ghost")

    def test_invalid_limits(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(tenant_inflight=0)

    def test_snapshot_shape(self):
        ctl = AdmissionController(max_inflight=4, tenant_inflight=2)
        ctl.admit("a")
        snap = ctl.snapshot()
        assert snap["inflight"] == 1
        assert snap["per_tenant_inflight"] == {"a": 1}
        assert snap["max_inflight"] == 4


# -- tenant-aware plan cache ---------------------------------------------------


class TestTenantPlanCache:
    def make_cache(self, tmp_path, quota=None):
        return PlanCache(
            store=PlanStore(str(tmp_path / "plans.json")),
            autosave=False,
            tenant_quota=quota,
        )

    def key(self, i=0, shape=(6, 7, 8)):
        return PlanKey.make(shape, 0, 4 + i, Layout.ROW_MAJOR, 1, "float64")

    def plan(self, shape=(6, 7, 8), j=4):
        return default_plan(shape, 0, j, Layout.ROW_MAJOR)

    def test_per_tenant_hit_accounting(self, tmp_path):
        cache = self.make_cache(tmp_path)
        key = self.key()
        assert cache.get(key, tenant="a") is None
        cache.put(key, self.plan(), tenant="a")
        assert cache.get(key, tenant="a") is not None
        assert cache.get(key, tenant="b") is not None
        a, b = cache.tenant_stats("a"), cache.tenant_stats("b")
        assert (a.hits, a.misses) == (1, 1)
        assert (b.hits, b.misses) == (1, 0)
        assert cache.stats.hits == 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)
        # Reading an unseen tenant's stats does not register it.
        assert cache.tenant_stats("nobody").as_dict() == dict.fromkeys(
            CacheStats.names, 0
        )
        assert cache.tenants() == ["a", "b"]

    def test_tenant_quota_evicts_oldest_owned_entry(self, tmp_path):
        cache = self.make_cache(tmp_path, quota=2)
        for i in range(3):
            cache.put(self.key(i), self.plan(j=4 + i), tenant="a")
        assert len(cache) == 2
        assert cache.peek(self.key(0)) is None  # oldest evicted
        assert cache.peek(self.key(2)) is not None
        assert cache.tenant_stats("a").evictions == 1
        # Another tenant is untouched by tenant a's quota.
        cache.put(self.key(7), self.plan(j=11), tenant="b")
        assert cache.peek(self.key(7)) is not None

    def test_stats_atomic_under_concurrent_readers(self, tmp_path):
        """N threads hammering one key lose no hit/miss increments."""
        cache = self.make_cache(tmp_path)
        key = self.key()
        cache.put(key, self.plan(), tenant="seed")
        threads, per_thread = 8, 200
        barrier = threading.Barrier(threads)

        def reader(tenant):
            barrier.wait()
            for _ in range(per_thread):
                cache.get(key, tenant=tenant)

        pool = [
            threading.Thread(target=reader, args=(f"t{i % 4}",))
            for i in range(threads)
        ]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert cache.stats.hits == threads * per_thread
        per_tenant = sum(
            cache.tenant_stats(t).hits for t in cache.tenants()
        )
        assert per_tenant == threads * per_thread


# -- the server ----------------------------------------------------------------


class TestServer:
    def test_serves_and_coalesces(self):
        async def scenario():
            server = await serving(max_batch=16, batch_window_s=0.002)
            try:
                results = await asyncio.gather(
                    *(
                        server.submit(
                            *materialize(entry)[:2],
                            entry.mode,
                            tenant=entry.tenant,
                        )
                        for entry in generate_trace(
                            default_tenants(4), 48, seed=3
                        )
                    )
                )
            finally:
                await server.stop()
            return server, results

        server, results = run(scenario())
        assert len(results) == 48
        assert server.stats.completed == 48
        assert server.stats.shed_total == 0
        assert max(r.batch_size for r in results) > 1

    def test_serves_plans_pinned_on_its_lib(self, tmp_path):
        from repro.core import InTensLi
        from repro.core.serialize import save_plans

        shape, mode, j = (6, 7, 8), 1, 4
        pinned = default_plan(shape, mode, j, Layout.ROW_MAJOR, degree=0,
                              dtype="float32")
        lib = InTensLi()
        assert lib.plan(shape, mode, j, dtype="float32") != pinned
        path = tmp_path / "pinned.json"
        save_plans([pinned], str(path))
        lib.load_plan_cache(str(path))
        request = make_request(shape, mode, j)

        async def scenario():
            server = TtmServer(lib=lib)
            await server.start()
            try:
                result = await server.submit(request.x, request.u, mode)
            finally:
                await server.stop()
            return server, result

        server, result = run(scenario())
        key = PlanKey.make(shape, mode, j, Layout.ROW_MAJOR,
                           lib.max_threads, "float32")
        assert server.plan_cache.peek(key).plan == pinned
        np.testing.assert_allclose(
            result.y.data, ttm_copy(request.x, request.u, mode).data,
            rtol=1e-4, atol=1e-4,
        )

    def test_results_match_oracle_through_server(self):
        async def scenario():
            server = await serving(max_batch=8)
            trace = generate_trace(default_tenants(2), 24, seed=5)
            try:
                report = await replay(
                    server, trace, concurrency=8, verify=True
                )
            finally:
                await server.stop()
            return report

        report = run(scenario())
        assert report.completed == 24
        assert report.wrong == 0
        assert report.shed["total"] == 0

    def test_admission_shed_when_saturated(self):
        async def scenario():
            server = await serving(
                max_inflight=2, max_batch=4, batch_window_s=0.01
            )
            request = make_request((8, 8, 8), 1, 4)
            try:
                outcomes = await asyncio.gather(
                    *(
                        server.submit(request.x, request.u, 1, tenant="t")
                        for _ in range(16)
                    ),
                    return_exceptions=True,
                )
            finally:
                await server.stop()
            return server, outcomes

        server, outcomes = run(scenario())
        shed = [o for o in outcomes if isinstance(o, OverloadError)]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert shed and served
        assert all(o.reason == "admission" for o in shed)
        assert server.stats.shed_admission == len(shed)

    def test_tenant_quota_isolates_tenants(self):
        async def scenario():
            server = await serving(
                max_inflight=64, tenant_inflight=1, batch_window_s=0.01
            )
            request = make_request((8, 8, 8), 1, 4)
            try:
                greedy = asyncio.gather(
                    *(
                        server.submit(request.x, request.u, 1, tenant="greedy")
                        for _ in range(8)
                    ),
                    return_exceptions=True,
                )
                polite = server.submit(
                    request.x, request.u, 1, tenant="polite"
                )
                greedy_out, polite_out = await asyncio.gather(
                    greedy, polite
                )
            finally:
                await server.stop()
            return greedy_out, polite_out

        greedy_out, polite_out = run(scenario())
        quota_shed = [
            o
            for o in greedy_out
            if isinstance(o, OverloadError) and o.reason == "tenant-quota"
        ]
        assert quota_shed, "greedy tenant was never limited"
        assert polite_out.y is not None  # other tenant unaffected

    def test_deadline_shed_under_slow_kernel(self):
        """An injected slow kernel backs the pool up; late work sheds."""
        faults = FaultInjector().arm(
            "kernel-raise", delay=0.05, times=10_000
        )

        async def scenario():
            server = await serving(
                workers=1,
                max_batch=2,
                batch_window_s=0.0,
                default_deadline_s=0.08,
            )
            request = make_request((8, 8, 8), 1, 4)
            try:
                outcomes = await asyncio.gather(
                    *(
                        server.submit(request.x, request.u, 1, tenant="t")
                        for _ in range(12)
                    ),
                    return_exceptions=True,
                )
            finally:
                await server.stop()
            return server, outcomes

        with fault_injection(faults):
            server, outcomes = run(scenario())
        shed = [
            o
            for o in outcomes
            if isinstance(o, OverloadError) and o.reason == "deadline"
        ]
        served = [o for o in outcomes if not isinstance(o, BaseException)]
        assert shed, "no deadline sheds despite a backed-up pool"
        assert served, "everything shed; deadline budget unrealistic"
        assert server.stats.shed_deadline == len(shed)
        assert faults.count("kernel-raise") > 0

    def test_memory_pressure_degrades_to_per_request(self, monkeypatch):
        """Under a tiny byte budget every request still runs through the
        guarded in-place path: all are served, none is shed, and every
        result matches the oracle."""
        monkeypatch.setenv("REPRO_MEM_LIMIT", "4096")

        async def scenario():
            server = await serving(max_batch=8, batch_window_s=0.01)
            requests = [
                make_request((6, 7, 8), 1, 4, seed=i) for i in range(6)
            ]
            try:
                results = await asyncio.gather(
                    *(
                        server.submit(r.x, r.u, 1, tenant="t")
                        for r in requests
                    )
                )
            finally:
                await server.stop()
            return server, requests, results

        server, requests, results = run(scenario())
        assert server.stats.completed == len(requests)
        assert server.stats.unbatched_requests == len(requests)
        assert server.stats.shed_total == 0
        for request, result in zip(requests, results):
            assert not result.batched
            expected = ttm_copy(request.x, request.u, 1)
            np.testing.assert_allclose(
                result.y.data, expected.data, rtol=1e-4, atol=1e-4
            )

    def test_dtype_and_layout_variants_group_apart(self):
        variants = [
            make_request((6, 7, 8), 1, 4, seed=i, dtype=dtype, layout=layout)
            for i, (dtype, layout) in enumerate(
                (dtype, layout)
                for dtype in (np.float32, np.float64)
                for layout in (Layout.ROW_MAJOR, Layout.COL_MAJOR)
            )
        ]
        groups = coalesce(variants + variants[::-1])
        assert [[id(r) for r in group] for _, group in groups] == [
            [id(v), id(v)] for v in variants
        ]
        assert {(sig.dtype, sig.layout) for sig, _ in groups} == {
            (dtype, layout)
            for dtype in ("float32", "float64")
            for layout in (Layout.ROW_MAJOR, Layout.COL_MAJOR)
        }

    @staticmethod
    def spy_on_pool(server):
        """Count the server's thread-pool submissions (executor hops)."""
        hops = []
        submit = server._pool.submit

        def spy(fn, *args):
            hops.append(args)
            return submit(fn, *args)

        server._pool.submit = spy
        return hops

    def serve_all(self, requests, **config):
        """Submit *requests* in one burst; ``(server, results, hops)``."""

        async def scenario():
            server = await serving(**config)
            hops = self.spy_on_pool(server)
            try:
                results = await asyncio.gather(
                    *(
                        server.submit(r.x, r.u, r.mode, tenant=r.tenant)
                        for r in requests
                    ),
                    return_exceptions=True,
                )
            finally:
                await server.stop()
            return server, results, hops

        return run(scenario())

    def test_one_hop_per_micro_batch(self):
        """At one worker, a drained batch of N requests over S signatures
        is one executor hop that runs S groups and stages nothing."""
        geometries = [((6, 7, 8), 1, 4), ((8, 8, 8), 0, 3), ((5, 6), 1, 2)]
        requests = [
            make_request(*geometries[i % len(geometries)], seed=i)
            for i in range(10)
        ]
        groups = coalesce(requests)
        assert len(groups) == len(geometries)
        server, results, hops = self.serve_all(
            requests, workers=1, max_batch=64, batch_window_s=0.05
        )
        assert len(hops) == 1
        assert server.stats.batches == len(groups)
        assert server.stats.batched_requests == 0
        assert server.stats.unbatched_requests == len(requests)
        assert server.stats.completed == len(requests)
        assert server.stats.max_batch == max(len(g) for _, g in groups)
        sizes = {id(r): len(g) for _, g in groups for r in g}
        for request, result in zip(requests, results):
            assert result.batch_size == sizes[id(request)]
            assert not result.batched

    def test_one_hop_per_worker(self):
        """At two workers, a micro-batch of three groups makes two hops."""
        geometries = [((6, 7, 8), 1, 4), ((8, 8, 8), 0, 3), ((5, 6), 1, 2)]
        requests = [
            make_request(*geometries[i % len(geometries)], seed=i)
            for i in range(9)
        ]
        server, results, hops = self.serve_all(
            requests, workers=2, max_batch=64, batch_window_s=0.05
        )
        assert len(hops) == 2
        assert server.stats.batches == len(geometries)
        assert server.stats.completed == len(requests)
        assert all(result.batch_size == 3 for result in results)

    def test_watchdog_sheds_a_stuck_batch(self):
        """A stuck hop sheds every request of both its signature groups."""
        faults = FaultInjector().arm(
            "kernel-raise", delay=0.25, times=10_000
        )
        requests = [
            make_request(((8, 8, 8), (6, 7, 8))[i % 2], 1, 4, seed=i)
            for i in range(4)
        ]
        with fault_injection(faults):
            server, outcomes, hops = self.serve_all(
                requests, workers=1, max_batch=8, batch_window_s=0.01,
                watchdog_s=0.05,
            )
        assert len(hops) == 1
        assert len(coalesce(requests)) == 2
        assert all(
            isinstance(o, OverloadError) and o.reason == "watchdog"
            for o in outcomes
        )
        assert server.stats.shed_watchdog == len(requests)

    def test_watchdog_serves_groups_finished_in_time(self):
        """When the watchdog trips, a group that finished before it is
        served; the stuck group sheds, and the group queued behind it is
        withdrawn, never computed."""
        fast = [make_request((8, 8, 8), 1, 4, seed=i) for i in range(2)]
        stuck = [make_request((6, 7, 8), 1, 4, seed=i) for i in range(2)]
        queued = [make_request((7, 7, 7), 1, 4, seed=i) for i in range(2)]
        release = threading.Event()
        ran = []

        async def scenario():
            server = await serving(
                workers=1, max_batch=8, batch_window_s=0, watchdog_s=0.3
            )
            execute = server._lib.execute

            def stalling(plan, x, u, **kwargs):
                ran.append(x.shape)
                if x.shape == (6, 7, 8):
                    release.wait(10)
                return execute(plan, x, u, **kwargs)

            server._lib.execute = stalling
            try:
                outcomes = await asyncio.gather(
                    *(
                        server.submit(r.x, r.u, 1, tenant="t")
                        for r in fast + stuck + queued
                    ),
                    return_exceptions=True,
                )
            finally:
                release.set()
                await server.stop()
            return server, outcomes

        server, outcomes = run(scenario())
        assert all(o.y.shape == (8, 4, 8) for o in outcomes[: len(fast)])
        assert all(
            isinstance(o, OverloadError) and o.reason == "watchdog"
            for o in outcomes[len(fast):]
        )
        assert server.stats.completed == len(fast)
        assert server.stats.shed_watchdog == len(stuck) + len(queued)
        assert (7, 7, 7) not in ran

    def test_hops_pull_groups_from_one_queue(self):
        """At two workers, a slow group holds one worker while the other
        runs every remaining group of the micro-batch."""
        shapes = [(8, 8, 8), (6, 7, 8), (7, 7, 7)]
        requests = [make_request(shape, 1, 4) for shape in shapes]
        threads = {}

        async def scenario():
            server = await serving(workers=2, max_batch=8, batch_window_s=0)
            hops = self.spy_on_pool(server)
            execute = server._lib.execute

            def recording(plan, x, u, **kwargs):
                threads[x.shape] = threading.get_ident()
                if x.shape == shapes[0]:
                    time.sleep(0.3)
                return execute(plan, x, u, **kwargs)

            server._lib.execute = recording
            try:
                outcomes = await asyncio.gather(
                    *(server.submit(r.x, r.u, 1) for r in requests)
                )
            finally:
                await server.stop()
            return outcomes, hops

        outcomes, hops = run(scenario())
        assert len(hops) == 2
        assert [o.y.shape[1] for o in outcomes] == [4, 4, 4]
        assert threads[shapes[1]] == threads[shapes[2]] != threads[shapes[0]]

    def test_an_untyped_error_fails_only_its_own_request(self):
        """A non-ReproError raised on the worker resolves its request
        with that error; the other group of the hop is still served."""
        good = [make_request((8, 8, 8), 1, 4, seed=i) for i in range(2)]
        bad = make_request((6, 7, 8), 1, 4)
        boom = RuntimeError("boom")

        async def scenario():
            server = await serving(workers=1, max_batch=8, batch_window_s=0)
            execute = server._lib.execute

            def raising(plan, x, u, **kwargs):
                if x.shape == bad.x.shape:
                    raise boom
                return execute(plan, x, u, **kwargs)

            server._lib.execute = raising
            try:
                outcomes = await asyncio.wait_for(
                    asyncio.gather(
                        *(
                            server.submit(r.x, r.u, 1, tenant="t")
                            for r in (good[0], bad, good[1])
                        ),
                        return_exceptions=True,
                    ),
                    10,
                )
            finally:
                await server.stop()
            return server, outcomes

        server, outcomes = run(scenario())
        assert outcomes[1] is boom
        assert outcomes[0].y.shape == outcomes[2].y.shape == (8, 4, 8)
        assert (server.stats.failed, server.stats.completed) == (1, 2)

    def test_deadline_lapsing_in_an_earlier_group_sheds_on_the_worker(self):
        """A group whose deadline passes while an earlier group of the
        same hop runs is shed by the worker's re-check, not computed."""
        slow = [make_request((8, 8, 8), 1, 4, seed=i) for i in range(2)]
        late = [make_request((6, 7, 8), 1, 4, seed=i) for i in range(2)]
        budgets = [None] * len(slow) + [0.1] * len(late)
        ran = []

        async def scenario():
            server = await serving(workers=1, max_batch=8, batch_window_s=0)
            hops = self.spy_on_pool(server)
            execute = server._lib.execute

            def slow_execute(plan, x, u, **kwargs):
                ran.append(x.shape)
                if x.shape == (8, 8, 8):
                    time.sleep(0.15)
                return execute(plan, x, u, **kwargs)

            server._lib.execute = slow_execute
            try:
                outcomes = await asyncio.gather(
                    *(
                        server.submit(r.x, r.u, 1, deadline_s=budget)
                        for r, budget in zip(slow + late, budgets)
                    ),
                    return_exceptions=True,
                )
            finally:
                await server.stop()
            return server, outcomes, hops

        server, outcomes, hops = run(scenario())
        # Both groups were live at dispatch and rode the one hop.
        assert len(hops) == 1 and len(hops[0][0]) == 2
        assert ran == [(8, 8, 8)] * len(slow)
        assert all(o.y.shape == (8, 4, 8) for o in outcomes[: len(slow)])
        assert all(
            isinstance(o, OverloadError) and o.reason == "deadline"
            for o in outcomes[len(slow):]
        )
        assert server.stats.shed_deadline == len(late)
        assert server.stats.completed == len(slow)

    def test_serves_the_shared_case_grid(self):
        """Every case x layout x dtype, X wrapped or raw, through one
        server, matches the equation-(1) reference."""
        rng = np.random.default_rng(0)
        submissions = []
        for layout in (Layout.ROW_MAJOR, Layout.COL_MAJOR):
            for dtype in (np.float64, np.float32):
                for shape, j, mode in DEFAULT_CASES + DEGENERATE_CASES:
                    order = "C" if layout is Layout.ROW_MAJOR else "F"
                    data = np.asarray(
                        rng.standard_normal(shape), dtype=dtype, order=order
                    )
                    u = rng.standard_normal((j, shape[mode])).astype(dtype)
                    submissions.append((DenseTensor(data, layout), u, mode))
                    submissions.append((data, u, mode))

        async def scenario():
            server = await serving(max_batch=64)
            try:
                return await asyncio.gather(
                    *(
                        server.submit(x, u, mode, tenant="grid")
                        for x, u, mode in submissions
                    )
                )
            finally:
                await server.stop()

        results = run(scenario())
        assert len(results) == 208
        for (x, u, mode), result in zip(submissions, results):
            data = x.data if isinstance(x, DenseTensor) else x
            expect = ttm_reference(
                data.astype(np.float64), u.astype(np.float64), mode
            )
            assert result.y.dtype == data.dtype
            assert result.y.shape == expect.shape
            rtol, atol = DTYPE_TOLERANCES[data.dtype.name]
            np.testing.assert_allclose(
                result.y.data.astype(np.float64), expect,
                rtol=rtol, atol=atol,
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 0),
            ("max_batch", 0),
            ("max_batch", -1),
            ("batch_window_s", -0.001),
            ("watchdog_s", 0),
            ("default_deadline_s", -1),
            ("max_inflight", 0),
        ],
    )
    def test_config_is_validated_at_construction(self, field, value):
        config = ServeConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            TtmServer(config=config)

    def test_submit_validates_operands(self):
        async def scenario():
            server = await serving()
            request = make_request((6, 7, 8), 1, 4)
            try:
                with pytest.raises(ShapeError):
                    await server.submit(
                        request.x, request.u[:, :-1], 1, tenant="t"
                    )
                with pytest.raises(ShapeError):
                    await server.submit(request.x, request.u, 9, tenant="t")
                # J = 0 raises like repro.ttm instead of never resolving.
                with pytest.raises(ValueError, match="j must be >= 1"):
                    await asyncio.wait_for(
                        server.submit(request.x, request.u[:0], 1), 5
                    )
            finally:
                await server.stop()

        run(scenario())

    def test_submit_after_stop_is_typed(self):
        async def scenario():
            server = await serving()
            await server.stop()
            request = make_request((6, 7, 8), 1, 4)
            with pytest.raises(OverloadError) as info:
                await server.submit(request.x, request.u, 1, tenant="t")
            return info.value

        assert run(scenario()).reason == "lifecycle"

    def test_tenant_hit_rates_are_exact(self):
        """Tenant b's first request hits the plan tenant a published."""

        async def scenario():
            server = await serving(max_batch=4, batch_window_s=0.0)
            request = make_request((8, 8, 8), 1, 4)
            try:
                await server.submit(request.x, request.u, 1, tenant="a")
                await server.submit(request.x, request.u, 1, tenant="a")
                await server.submit(request.x, request.u, 1, tenant="b")
            finally:
                await server.stop()
            return server

        server = run(scenario())
        a = server.plan_cache.tenant_stats("a")
        b = server.plan_cache.tenant_stats("b")
        assert (a.hits, a.misses) == (1, 1)
        assert (b.hits, b.misses) == (1, 0)

    def test_bills_the_libs_one_cache(self, tmp_path):
        from repro.core import InTensLi

        lib = InTensLi()
        server = TtmServer(lib=lib, config=ServeConfig(tenant_cache_quota=3))
        assert server.plan_cache is lib.plan_cache
        assert lib.plan_cache.default_tenant_quota == 3
        shared = PlanCache(
            store=PlanStore(str(tmp_path / "plans.json")), autosave=False
        )
        server = TtmServer(lib=lib, plan_cache=shared)
        assert lib.plan_cache is shared and server.plan_cache is shared

    def test_one_read_bills_every_request_of_a_group(self):
        """A group of 4 is one cache read, billed as 4 tenant lookups."""

        async def scenario():
            server = await serving(max_batch=8, batch_window_s=0.05)
            request = make_request((8, 8, 8), 1, 4)
            try:
                for _ in range(2):
                    await asyncio.gather(
                        *(
                            server.submit(request.x, request.u, 1, tenant=t)
                            for t in ("a", "a", "b", "b")
                        )
                    )
            finally:
                await server.stop()
            return server

        with track_hot_path() as counters:
            server = run(scenario())
        cache = server.plan_cache
        assert server.stats.batches == 2
        a, b = cache.tenant_stats("a"), cache.tenant_stats("b")
        assert (a.hits, a.misses, b.hits, b.misses) == (2, 2, 2, 2)
        assert (cache.stats.hits, cache.stats.misses) == (4, 4)
        assert (counters.plan_cache_hits, counters.plan_cache_misses) == (4, 4)
        assert counters.estimator_runs == 1
        # The entry is charged to the first request's tenant only.
        assert (cache.tenant_entries("a"), cache.tenant_entries("b")) == (1, 0)

    def test_serve_batch_spans_are_rooted(self):
        """Worker-thread batches trace as ROOT-parented span trees."""
        tracer = Tracer()

        async def scenario():
            server = await serving(max_batch=8, batch_window_s=0.005)
            request = make_request((8, 8, 8), 1, 4)
            try:
                await asyncio.gather(
                    *(
                        server.submit(request.x, request.u, 1, tenant="t")
                        for _ in range(4)
                    )
                )
            finally:
                await server.stop()

        with tracing(tracer):
            run(scenario())
        spans = tracer.collector.spans()
        batches = [s for s in spans if s.name == "serve-batch"]
        leaves = [s for s in spans if s.name == "request"]
        assert batches and leaves
        assert all(s.parent_id is None for s in batches)
        batch_ids = {s.span_id for s in batches}
        assert all(s.parent_id in batch_ids for s in leaves)


# -- ROOT sentinel -------------------------------------------------------------


def test_root_sentinel_forces_root_span():
    tracer = Tracer()
    with tracing(tracer):
        with tracer.span("outer"):
            with tracer.span("forced-root", parent=ROOT):
                with tracer.span("child"):
                    pass
    by_name = {s.name: s for s in tracer.collector.spans()}
    assert by_name["forced-root"].parent_id is None
    assert by_name["child"].parent_id == by_name["forced-root"].span_id


# -- workload harness ----------------------------------------------------------


class TestWorkload:
    def test_trace_is_deterministic(self):
        a = generate_trace(default_tenants(4), 64, seed=9)
        b = generate_trace(default_tenants(4), 64, seed=9)
        assert a == b
        c = generate_trace(default_tenants(4), 64, seed=10)
        assert a != c

    def test_trace_roundtrips_through_json(self, tmp_path):
        trace = generate_trace(default_tenants(3), 32, seed=1)
        path = str(tmp_path / "trace.json")
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_stream_pattern_respects_weights(self):
        tenants = default_tenants(4)
        trace = generate_trace(
            tenants, 200, seed=0, pattern="stream"
        )
        counts = {t.name: 0 for t in tenants}
        for entry in trace:
            counts[entry.tenant] += 1
        total_weight = sum(t.weight for t in tenants)
        for t in tenants:
            expected = 200 * t.weight / total_weight
            assert abs(counts[t.name] - expected) <= 2
        # Evenly spaced, monotonically increasing arrivals.
        gaps = [
            b.issue_s - a.issue_s for a, b in zip(trace, trace[1:])
        ]
        assert all(abs(g - gaps[0]) < 1e-9 for g in gaps)

    def test_materialize_is_reproducible(self):
        entry = TraceEntry(
            index=0, tenant="t", shape=(4, 5, 6), mode=1, j=3,
            layout="row", dtype="float32", issue_s=0.0, seed=42,
        )
        x1, u1 = materialize(entry)
        x2, u2 = materialize(entry)
        np.testing.assert_array_equal(x1.data, x2.data)
        np.testing.assert_array_equal(u1, u2)

    def test_trace_rejects_bad_inputs(self):
        with pytest.raises(ShapeError):
            generate_trace(default_tenants(2), 0)
        with pytest.raises(ShapeError):
            generate_trace(default_tenants(2), 4, pattern="bursty")
        with pytest.raises(ShapeError):
            default_tenants(0)

    def test_report_invariants_at_nominal_load(self):
        async def scenario():
            server = await serving(max_batch=16)
            trace = generate_trace(default_tenants(4), 96, seed=11)
            try:
                return await replay(server, trace, concurrency=32)
            finally:
                await server.stop()

        report = run(scenario())
        assert report.requests == 96
        assert report.completed == 96
        assert report.shed["total"] == 0
        assert report.shed_rate == 0.0
        assert report.sustained_gflops > 0
        assert set(report.per_tenant) == {
            f"tenant-{i}" for i in range(4)
        }
        assert report.latencies_ms["p50"] <= report.latencies_ms["p99"]
        payload = report.to_dict()
        assert payload["batching"]["batches"] > 0
        assert 0.0 <= payload["cache"]["hit_rate"] <= 1.0
