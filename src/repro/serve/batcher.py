"""Grouping: a micro-batch's requests, bucketed by dispatch signature.

Every request whose input signature — shape, mode, J, layout, dtype —
matches runs under the same plan, so a group of B such requests costs
one plan lookup and one hop from the event loop to a worker thread
instead of B.  Each request in the group still runs its own in-place
kernel on its own operands: staging B unfoldings into one batched
multiply would copy every X, which is the matricization the in-place
TTM exists to avoid, and it measured slower than per-request dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.tensor.layout import Layout
from repro.util.dtypes import dtype_name


@dataclass(frozen=True)
class FleetSignature:
    """The dispatch signature a request group is valid for.

    Two requests share a group exactly when their signatures are equal:
    they then share one plan, and mixing layouts or dtypes under one plan
    would silently change semantics.
    """

    shape: tuple[int, ...]
    mode: int
    j: int
    layout: Layout
    dtype: str

    @property
    def out_shape(self) -> tuple[int, ...]:
        return tuple(
            self.j if i == self.mode else s for i, s in enumerate(self.shape)
        )

    def describe(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"{dims}|m{self.mode}|J{self.j}|{self.layout.name}|{self.dtype}"


def signature_of(request) -> FleetSignature:
    """The :class:`FleetSignature` of one admitted request."""
    x = request.x
    return FleetSignature(
        shape=x.shape,
        mode=request.mode,
        j=request.u.shape[0],
        layout=x.layout,
        dtype=dtype_name(x.data.dtype),
    )


def coalesce(requests: Sequence) -> list[tuple[FleetSignature, list]]:
    """Group requests by signature, preserving arrival order.

    Returns ``(signature, requests)`` pairs ordered by each group's
    first arrival, so a burst of heterogeneous traffic dispatches its
    oldest work first.
    """
    groups: dict[FleetSignature, list] = {}
    for request in requests:
        groups.setdefault(signature_of(request), []).append(request)
    return list(groups.items())

