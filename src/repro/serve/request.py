"""Request and response records for the TTM serving layer.

A :class:`TtmRequest` is one tenant's TTM call frozen at admission time:
operands, product mode, and the absolute deadline its latency budget
implies.  Requests that agree on geometry, layout, and dtype share a
:class:`~repro.serve.batcher.FleetSignature`, and so one plan;
everything the batcher needs to group them is derivable from this
record alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.perf.flops import ttm_flops
from repro.tensor.dense import DenseTensor


@dataclass
class TtmRequest:
    """One admitted TTM request: ``y = x ×_mode u`` for *tenant*.

    ``arrival_s``/``deadline_s`` are ``time.perf_counter()`` seconds;
    ``deadline_s`` is absolute (arrival plus the caller's budget) and
    None when the request has no deadline.  ``future`` is the asyncio
    future the submitting coroutine awaits; the dispatcher resolves it
    with a :class:`RequestResult` or a typed error.
    """

    tenant: str
    x: DenseTensor
    u: np.ndarray
    mode: int
    request_id: int = -1
    arrival_s: float = 0.0
    deadline_s: float | None = None
    future: Any = field(default=None, repr=False, compare=False)

    @property
    def j(self) -> int:
        """The output rank of this request (rows of U)."""
        return int(self.u.shape[0])

    @property
    def flops(self) -> int:
        """The request's useful work, for sustained-GFLOP/s accounting."""
        return ttm_flops(self.x.shape, self.j)

    def expired(self, now: float) -> bool:
        """True when the deadline passed before *now* (False without one)."""
        return self.deadline_s is not None and now > self.deadline_s


@dataclass
class RequestResult:
    """A completed request's product plus its serving telemetry.

    ``batch_size`` is the size of the request's signature group (one
    executor hop may carry several groups).  ``batched`` is always
    False: every request runs its own in-place kernel.
    """

    request_id: int
    tenant: str
    y: DenseTensor
    latency_s: float
    queue_s: float
    batch_size: int
    batched: bool
    flops: int

    def to_dict(self) -> dict:
        """JSON-safe telemetry (the tensor itself is not serialized)."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "latency_s": self.latency_s,
            "queue_s": self.queue_s,
            "batch_size": self.batch_size,
            "batched": self.batched,
            "flops": self.flops,
        }
