"""``repro.serve`` — concurrent multi-tenant TTM serving.

The library below this package is single-caller: one thread plans and
executes one TTM at a time.  This package turns it into a serving
engine: an asyncio front-end (:class:`TtmServer`) that admits requests
from many tenants, groups requests by dispatch signature (one plan
lookup per group, one hop to a worker thread per micro-batch), runs
every request through the in-place, memory-guarded
``InTensLi.execute`` path (lower-degree replans under memory
pressure), shares one :class:`repro.autotune.PlanCache` across tenants
with per-tenant quotas and hit-rate accounting, and sheds load under
overload — admission, deadlines and the serving watchdog resolve
requests with a typed :class:`~repro.util.errors.OverloadError`
instead of queueing forever.

Paired with it, :mod:`repro.serve.workload` generates and replays
deterministic multi-tenant request traces (the ramulator2
``gen_trace.py`` pattern: weighted tenants, random vs. streaming
arrivals, seeded RNG) and reports p50/p95/p99 latency, shed rate, cache
hit rate, and sustained GFLOP/s.

Quick use::

    import asyncio
    from repro.serve import ServeConfig, TtmServer
    from repro.serve.workload import default_tenants, generate_trace, replay

    async def main():
        server = TtmServer(config=ServeConfig(max_batch=32))
        await server.start()
        try:
            trace = generate_trace(default_tenants(4), 2000, seed=7)
            report = await replay(server, trace, concurrency=64)
        finally:
            await server.stop()
        print(report.describe())

    asyncio.run(main())

Or from the shell: ``python -m repro serve --requests 2000 --tenants 4``.
"""

from repro.serve.admission import AdmissionController
from repro.serve.batcher import (
    FleetSignature,
    coalesce,
    signature_of,
)
from repro.serve.request import RequestResult, TtmRequest
from repro.serve.server import ServeConfig, ServerStats, TtmServer
from repro.serve.workload import (
    LoadReport,
    TenantProfile,
    TraceEntry,
    default_tenants,
    generate_trace,
    load_trace,
    materialize,
    replay,
    save_trace,
)
from repro.util.errors import OverloadError

__all__ = [
    "AdmissionController",
    "FleetSignature",
    "LoadReport",
    "OverloadError",
    "RequestResult",
    "ServeConfig",
    "ServerStats",
    "TenantProfile",
    "TraceEntry",
    "TtmRequest",
    "TtmServer",
    "coalesce",
    "default_tenants",
    "generate_trace",
    "load_trace",
    "materialize",
    "replay",
    "save_trace",
    "signature_of",
]
