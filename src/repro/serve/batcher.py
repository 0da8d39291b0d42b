"""Grouping: a micro-batch's requests, bucketed by dispatch signature.

Every request whose input signature — shape, mode, J, layout, dtype —
matches runs under the same plan, so a group of B such requests costs
one plan lookup instead of B, and a micro-batch's groups share one hop
to a worker thread.  Each request in the group still runs its own in-place
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


def coalesce(requests: Sequence) -> list[tuple[FleetSignature, list]]:
    """Group requests by signature, preserving arrival order.

    Returns ``(signature, requests)`` pairs ordered by each group's
    first arrival, so a burst of heterogeneous traffic dispatches its
    oldest work first.  One signature object is built per group.
    """
    groups: dict[tuple, list] = {}
    for request in requests:
        x = request.x
        key = (
            x.shape,
            request.mode,
            request.u.shape[0],
            x.layout,
            dtype_name(x.data.dtype),
        )
        groups.setdefault(key, []).append(request)
    return [(FleetSignature(*key), group) for key, group in groups.items()]


def signature_of(request) -> FleetSignature:
    """The :class:`FleetSignature` of one admitted request."""
    return coalesce([request])[0][0]
