"""Trace-driven multi-tenant load generation and replay.

The harness follows the memory-simulator trace-generator pattern
(ramulator2's ``gen_trace.py``): a *trace* is a deterministic,
serializable list of request descriptors — tenant, shape, mode, J,
arrival offset, per-entry operand seed — produced once from a seeded RNG
and replayable anywhere, so a CI smoke run and a local debug run issue
byte-identical workloads.  Two arrival patterns:

``random``
    Tenants drawn by weight, exponential inter-arrival gaps — the bursty
    mixed traffic a shared service actually sees.
``stream``
    Evenly spaced arrivals with a deterministic weighted round-robin
    over tenants — the steady-state pattern for measuring sustained
    throughput without burst noise.

:func:`replay` drives a running :class:`~repro.serve.TtmServer` either
closed-loop (a semaphore caps the number of in-flight submissions — the
CI smoke mode, where zero sheds are an invariant) or open-loop (entries
fire at their trace timestamps regardless of completions — the overload
mode, where shedding is the point).  Every completed result can be
checked against the Algorithm-1 oracle, and the run distills into a
:class:`LoadReport`: p50/p95/p99 latency, shed and failure breakdowns,
plan-cache hit rate, batching behaviour, and sustained GFLOP/s.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.baselines.tensor_toolbox import ttm_copy
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.errors import OverloadError, ReproError, ShapeError

TRACE_VERSION = 1


@dataclass(frozen=True)
class TenantProfile:
    """One tenant's traffic character: weight and the shapes it sends.

    ``shapes`` is a sequence of ``(shape, mode, j)`` triples the tenant
    cycles through; ``weight`` is its relative share of the request
    stream.  ``layout``/``dtype`` apply to all of the tenant's requests.
    """

    name: str
    weight: float = 1.0
    shapes: tuple = (((16, 16, 16), 0, 8),)
    layout: str = "row"
    dtype: str = "float32"

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ShapeError(
                f"tenant {self.name!r} weight must be > 0, got {self.weight}"
            )
        if not self.shapes:
            raise ShapeError(f"tenant {self.name!r} has no shapes")


@dataclass(frozen=True)
class TraceEntry:
    """One request descriptor: everything needed to re-issue it exactly.

    ``issue_s`` is the arrival offset from the start of the replay;
    ``seed`` derives the operand contents, so two replays of the same
    trace submit bit-identical tensors.
    """

    index: int
    tenant: str
    shape: tuple[int, ...]
    mode: int
    j: int
    layout: str
    dtype: str
    issue_s: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "tenant": self.tenant,
            "shape": list(self.shape),
            "mode": self.mode,
            "j": self.j,
            "layout": self.layout,
            "dtype": self.dtype,
            "issue_s": self.issue_s,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, row: dict) -> "TraceEntry":
        return cls(
            index=int(row["index"]),
            tenant=str(row["tenant"]),
            shape=tuple(int(s) for s in row["shape"]),
            mode=int(row["mode"]),
            j=int(row["j"]),
            layout=str(row["layout"]),
            dtype=str(row["dtype"]),
            issue_s=float(row["issue_s"]),
            seed=int(row["seed"]),
        )


_DEFAULT_SHAPE_SETS = (
    # Small cubes at two ranks: the bread-and-butter coalescible traffic.
    (((16, 16, 16), 0, 8), ((16, 16, 16), 1, 8)),
    # Mid-size cubes, last mode: distinct signature, still cheap.
    (((24, 24, 24), 2, 12), ((24, 24, 24), 0, 12)),
    # Rectangular order-4: exercises the general unfolding path.
    (((8, 12, 10, 6), 1, 10), ((8, 12, 10, 6), 3, 6)),
    # A slightly larger cube to spread the flops distribution.
    (((32, 32, 32), 0, 16),),
)


def default_tenants(count: int = 4) -> list[TenantProfile]:
    """*count* synthetic tenants with distinct weights and shape mixes.

    Weights follow a 4:3:2:1-style taper so per-tenant accounting in
    reports is visibly differentiated; shape sets cycle through
    :data:`_DEFAULT_SHAPE_SETS` so at least two tenants share coalescible
    signatures once ``count > len(_DEFAULT_SHAPE_SETS)``.
    """
    if count < 1:
        raise ShapeError(f"tenant count must be >= 1, got {count}")
    tenants = []
    for i in range(count):
        tenants.append(
            TenantProfile(
                name=f"tenant-{i}",
                weight=float(count - i),
                shapes=_DEFAULT_SHAPE_SETS[i % len(_DEFAULT_SHAPE_SETS)],
            )
        )
    return tenants


def generate_trace(
    tenants: Sequence[TenantProfile],
    requests: int,
    *,
    seed: int = 0,
    pattern: str = "random",
    rate_hz: float = 2000.0,
) -> list[TraceEntry]:
    """A deterministic multi-tenant trace of *requests* entries.

    ``pattern="random"`` draws tenants by weight with exponential
    inter-arrival gaps at mean rate *rate_hz*; ``pattern="stream"``
    spaces arrivals evenly and interleaves tenants with a deterministic
    weighted round-robin (largest-remainder style), so the stream is
    reproducible without sampling.  Each tenant cycles its own shape
    list independently in both patterns.
    """
    if requests < 1:
        raise ShapeError(f"requests must be >= 1, got {requests}")
    if pattern not in ("random", "stream"):
        raise ShapeError(
            f"pattern must be 'random' or 'stream', got {pattern!r}"
        )
    if rate_hz <= 0:
        raise ShapeError(f"rate_hz must be > 0, got {rate_hz}")
    tenants = list(tenants)
    rng = np.random.default_rng(seed)
    weights = np.array([t.weight for t in tenants], dtype=np.float64)
    weights /= weights.sum()
    shape_cursor = {t.name: 0 for t in tenants}
    credits = {t.name: 0.0 for t in tenants}
    entries: list[TraceEntry] = []
    clock = 0.0
    for index in range(requests):
        if pattern == "random":
            tenant = tenants[int(rng.choice(len(tenants), p=weights))]
            clock += float(rng.exponential(1.0 / rate_hz))
        else:
            # Weighted round-robin: accrue credit by weight, serve the
            # richest tenant, charge it one full unit.
            for t, w in zip(tenants, weights):
                credits[t.name] += float(w)
            tenant = max(tenants, key=lambda t: (credits[t.name], t.name))
            credits[tenant.name] -= 1.0
            clock = index / rate_hz
        cursor = shape_cursor[tenant.name]
        shape, mode, j = tenant.shapes[cursor % len(tenant.shapes)]
        shape_cursor[tenant.name] = cursor + 1
        entries.append(
            TraceEntry(
                index=index,
                tenant=tenant.name,
                shape=tuple(int(s) for s in shape),
                mode=int(mode),
                j=int(j),
                layout=tenant.layout,
                dtype=tenant.dtype,
                issue_s=clock,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
        )
    return entries


def save_trace(trace: Sequence[TraceEntry], path: str) -> None:
    """Write a trace as versioned JSON (the loadgen CLI's output)."""
    payload = {
        "version": TRACE_VERSION,
        "requests": len(trace),
        "entries": [entry.to_dict() for entry in trace],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_trace(path: str) -> list[TraceEntry]:
    """Read a trace written by :func:`save_trace`."""
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("version") != TRACE_VERSION:
        raise ShapeError(
            f"trace {path!r} has version {payload.get('version')!r}, "
            f"expected {TRACE_VERSION}"
        )
    return [TraceEntry.from_dict(row) for row in payload["entries"]]


def materialize(entry: TraceEntry) -> tuple[DenseTensor, np.ndarray]:
    """The ``(x, u)`` operands for one trace entry, from its own seed."""
    rng = np.random.default_rng(entry.seed)
    dtype = np.dtype(entry.dtype)
    layout = Layout.parse(entry.layout)
    order = "C" if layout is Layout.ROW_MAJOR else "F"
    data = np.asarray(
        rng.standard_normal(entry.shape, dtype=np.float64).astype(dtype),
        order=order,
    )
    x = DenseTensor(data, layout)
    u = rng.standard_normal(
        (entry.j, entry.shape[entry.mode]), dtype=np.float64
    ).astype(dtype)
    return x, u


@dataclass
class LoadReport:
    """The distilled outcome of one trace replay."""

    requests: int
    completed: int
    wrong: int
    failed: int
    shed: dict
    latencies_ms: dict
    wall_s: float
    sustained_gflops: float
    cache: dict
    batching: dict
    per_tenant: dict
    config: dict = field(default_factory=dict)

    @property
    def shed_rate(self) -> float:
        return self.shed["total"] / self.requests if self.requests else 0.0

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "completed": self.completed,
            "wrong": self.wrong,
            "failed": self.failed,
            "shed": dict(self.shed),
            "shed_rate": self.shed_rate,
            "latencies_ms": dict(self.latencies_ms),
            "wall_s": self.wall_s,
            "sustained_gflops": self.sustained_gflops,
            "cache": dict(self.cache),
            "batching": dict(self.batching),
            "per_tenant": {k: dict(v) for k, v in self.per_tenant.items()},
            "config": dict(self.config),
        }

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")

    def describe(self) -> str:
        lat = self.latencies_ms
        lines = [
            f"requests        {self.requests}",
            f"completed       {self.completed}"
            f"  (wrong: {self.wrong}, failed: {self.failed})",
            f"shed            {self.shed['total']}"
            f"  (rate {self.shed_rate:.2%}: {self.shed})",
            f"latency ms      p50 {lat['p50']:.3f}  p95 {lat['p95']:.3f}"
            f"  p99 {lat['p99']:.3f}  max {lat['max']:.3f}",
            f"wall            {self.wall_s:.3f} s"
            f"  ({self.sustained_gflops:.2f} sustained GFLOP/s)",
            f"plan cache      {self.cache['hit_rate']:.2%} hit rate"
            f" over {self.cache['lookups']} lookups",
            f"batching        {self.batching['batched_requests']} batched /"
            f" {self.batching['unbatched_requests']} unbatched"
            f" in {self.batching['batches']} signature groups"
            f" (max batch {self.batching['max_batch']})",
        ]
        for tenant in sorted(self.per_tenant):
            row = self.per_tenant[tenant]
            lines.append(
                f"  {tenant:<12} completed {row['completed']:>6}"
                f"  shed {row['shed']:>4}  p99 {row['p99_ms']:.3f} ms"
            )
        return "\n".join(lines)


def _percentiles(samples_ms: list[float]) -> dict:
    if not samples_ms:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0, "mean": 0.0}
    arr = np.asarray(samples_ms, dtype=np.float64)
    return {
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


def _check_result(entry: TraceEntry, y: DenseTensor) -> bool:
    """True when *y* matches the Algorithm-1 oracle for *entry*."""
    x, u = materialize(entry)
    expected = ttm_copy(x, u, entry.mode)
    tol = 1e-5 if np.dtype(entry.dtype) == np.float32 else 1e-10
    return bool(
        np.allclose(y.data, expected.data, rtol=tol, atol=tol)
        and y.data.shape == expected.data.shape
    )


async def replay(
    server,
    trace: Sequence[TraceEntry],
    *,
    concurrency: int = 64,
    open_loop: bool = False,
    verify: bool = False,
    deadline_s: float | None = None,
    time_scale: float = 1.0,
) -> LoadReport:
    """Drive *server* with *trace* and distill a :class:`LoadReport`.

    Closed-loop (default): a semaphore keeps at most *concurrency*
    submissions in flight, so arrival timestamps are ignored and the
    server sees steady pressure — the deterministic CI mode.  Open-loop:
    entries fire at ``issue_s * time_scale`` regardless of completions,
    which can outrun the server and exercise shedding.  *verify* checks
    every completed result against the Algorithm-1 oracle (expensive:
    one extra TTM per request).
    """
    if concurrency < 1:
        raise ShapeError(f"concurrency must be >= 1, got {concurrency}")
    trace = list(trace)
    gate = asyncio.Semaphore(concurrency)
    shed = {
        "total": 0,
        "admission": 0,
        "tenant-quota": 0,
        "deadline": 0,
        "watchdog": 0,
    }
    tenant_rows: dict[str, dict] = {}
    tenant_lat: dict[str, list[float]] = {}
    latencies_ms: list[float] = []
    tally = {"completed": 0, "wrong": 0, "failed": 0, "flops": 0}

    def _tenant_row(tenant: str) -> dict:
        tenant_lat.setdefault(tenant, [])
        return tenant_rows.setdefault(
            tenant, {"requests": 0, "completed": 0, "shed": 0, "failed": 0}
        )

    async def _issue(entry: TraceEntry) -> None:
        row = _tenant_row(entry.tenant)
        row["requests"] += 1
        x, u = materialize(entry)
        try:
            result = await server.submit(
                x, u, entry.mode, tenant=entry.tenant, deadline_s=deadline_s
            )
        except OverloadError as exc:
            reason = exc.reason if exc.reason in shed else "admission"
            shed["total"] += 1
            shed[reason] += 1
            row["shed"] += 1
            return
        except ReproError:
            tally["failed"] += 1
            row["failed"] += 1
            return
        tally["completed"] += 1
        tally["flops"] += result.flops
        row["completed"] += 1
        ms = result.latency_s * 1e3
        latencies_ms.append(ms)
        tenant_lat[entry.tenant].append(ms)
        if verify and not _check_result(entry, result.y):
            tally["wrong"] += 1

    async def _closed(entry: TraceEntry) -> None:
        async with gate:
            await _issue(entry)

    async def _open(entry: TraceEntry, start: float) -> None:
        delay = entry.issue_s * time_scale - (time.perf_counter() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        await _issue(entry)

    start = time.perf_counter()
    if open_loop:
        await asyncio.gather(*(_open(e, start) for e in trace))
    else:
        await asyncio.gather(*(_closed(e) for e in trace))
    wall_s = time.perf_counter() - start

    snapshot = server.snapshot()
    cache = snapshot["plan_cache"]["stats"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    per_tenant = {}
    for tenant, row in tenant_rows.items():
        pct = _percentiles(tenant_lat[tenant])
        per_tenant[tenant] = {**row, "p99_ms": pct["p99"]}
    return LoadReport(
        requests=len(trace),
        completed=tally["completed"],
        wrong=tally["wrong"],
        failed=tally["failed"],
        shed=shed,
        latencies_ms=_percentiles(latencies_ms),
        wall_s=wall_s,
        sustained_gflops=(
            tally["flops"] / wall_s / 1e9 if wall_s > 0 else math.inf
        ),
        cache={
            "hit_rate": snapshot["plan_cache"]["hit_rate"],
            "lookups": lookups,
            "entries": snapshot["plan_cache"]["entries"],
            "per_tenant": snapshot["plan_cache"]["per_tenant"],
        },
        batching={
            "batches": snapshot["stats"]["batches"],
            "batched_requests": snapshot["stats"]["batched_requests"],
            "unbatched_requests": snapshot["stats"]["unbatched_requests"],
            "max_batch": snapshot["stats"]["max_batch"],
            "batch_fallbacks": snapshot["stats"]["batch_fallbacks"],
        },
        per_tenant=per_tenant,
        config={
            "concurrency": concurrency,
            "open_loop": open_loop,
            "verify": verify,
            "deadline_s": deadline_s,
        },
    )
