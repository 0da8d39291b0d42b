"""Multi-TTM chains: planning and fused execution of Tucker projections.

The paper's motivating workload (§2) is the HOOI chain
``Y = X x_1 A^(1)T ... x_N A^(N)T`` (skipping one mode), i.e. a
*sequence* of mode-n products where each product changes the tensor's
shape and therefore the cost of every later product.  The execution
order is free — mode-n products along distinct modes commute — and the
cost spread between orders grows with the reduction ratios ``I_n / J_n``.

This module plans the chain **as a unit**, the GETT/TBLIS view of a
contraction sequence (contraction without transposition, native-
dimension blocking):

* :func:`greedy_order` / :func:`optimal_order` choose the step order —
  greedy by reduction rate (provably flop-optimal for independent
  per-step multipliers), or exactly by a subset dynamic program whose
  cost model also prices the *intermediate bytes* each order
  materializes, not just its flops (:func:`chain_cost`);
* :class:`ChainPlan` pre-builds every per-step :class:`TtmPlan` once,
  against the evolving shapes of the chosen order, so no step re-plans
  from a cold start;
* :func:`execute_chain` runs the chain through a **ping-pong scratch
  pool** (:class:`ScratchPool`): two reusable buffers are threaded
  through the executor's ``out=`` path, so an N-step chain performs at
  most two intermediate allocations instead of N, and the final product
  lands directly in a caller-supplied ``out`` when given.

:func:`ttm_chain` remains the single entry point: with an explicit
*backend* callable it executes step-at-a-time as before (the honest
path for baseline backends that cannot write into preallocated
outputs); with a :class:`ChainPlan` (or none of either) it runs fused.
Its fused path and :meth:`repro.core.intensli.InTensLi.ttm_chain` share
one front end (:func:`_fused_chain`): the steps are normalized and
validated once, on the real matrices, before the first product; the
chain is planned from the parsed ``(mode, J)`` signature; one executor
body runs it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from repro.core.plan import TtmPlan
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import dtype_name, match_dtype
from repro.util.errors import DtypeError, PlanError, ShapeError
from repro.util.validation import check_mode, check_positive_int, check_shape

#: Largest chain the exact order optimizer accepts.  The subset DP is
#: O(2^N * N); beyond this the greedy order is the supported path.
MAX_OPTIMAL_STEPS = 8

#: Default flops-per-byte machine balance used to weigh compute against
#: intermediate traffic when ordering a chain (a roofline ridge point;
#: overridden with the estimator's calibrated value when available).
DEFAULT_FLOPS_PER_BYTE = 16.0


@dataclass(frozen=True)
class ChainStep:
    """One mode-n product in a chain: contract *mode* with *matrix* (J x I_n)."""

    mode: int
    matrix: np.ndarray

    @property
    def j(self) -> int:
        return self.matrix.shape[0]


def _check_chain(
    shape: Sequence[int],
    steps: Sequence["ChainStep | tuple[int, np.ndarray | int]"],
) -> tuple[tuple[int, int], ...]:
    """Validate a chain on *shape* and return its ``(mode, J)`` signature.

    Steps are :class:`ChainStep` objects, ``(mode, matrix)`` pairs or
    ``(mode, J)`` signature pairs.  A matrix must be 2-D with ``I_n``
    columns; every mode must be in range and appear once, every ``J`` be
    a positive int.  The cost models, the orderers, both planners and
    both chain entry points validate through here.
    """
    sig: list[tuple[int, int]] = []
    seen = set()
    for s in steps:
        mode, second = (s.mode, s.matrix) if isinstance(s, ChainStep) else s
        mode = check_mode(mode, len(shape))
        if mode in seen:
            raise ShapeError(
                f"mode {mode} appears twice in the chain; fold repeated "
                "products into one matrix first"
            )
        seen.add(mode)
        if hasattr(second, "shape"):
            if second.ndim != 2 or second.shape[1] != shape[mode]:
                raise ShapeError(
                    f"chain step at mode {mode} has matrix shape "
                    f"{second.shape}, expected (J, {shape[mode]})"
                )
            second = second.shape[0]
        sig.append((mode, check_positive_int(second, "j")))
    return tuple(sig)


def _coerce_steps(
    steps: Sequence["ChainStep | tuple[int, np.ndarray]"],
    dtype: np.dtype,
    transpose: bool = False,
) -> list[ChainStep]:
    """Normalize *steps* to :class:`ChainStep`, preserving the chain dtype.

    The executor's operand policy (:func:`~repro.util.dtypes
    .match_dtype`): a matrix already in the chain dtype passes through
    untouched; a *different* supported float dtype is rejected; a
    byte-swapped or non-float matrix is materialized in the chain dtype.
    With *transpose* every matrix is ``(I_n, J)`` and is applied through
    its transpose view (the Tucker projection's convention; no copy).
    """
    out: list[ChainStep] = []
    for s in steps:
        if isinstance(s, ChainStep):
            mode, matrix = s.mode, s.matrix
        else:
            mode, matrix = int(s[0]), s[1]
        matrix = match_dtype(
            matrix, dtype, what=f"the matrix of chain step at mode {mode}"
        )
        if transpose:
            matrix = matrix.T
        if isinstance(s, ChainStep) and matrix is s.matrix:
            out.append(s)
        else:
            out.append(ChainStep(mode, matrix))
    return out


# -- cost models ---------------------------------------------------------------


def _running_sizes(
    shape: Sequence[int],
    sig: Sequence[tuple[int, int]],
    order: Sequence[int],
) -> list[int]:
    """Element counts of the intermediate before the first step of *order*
    and after each one.

    Each product replaces ``I_n`` by ``J_n`` in the running shape, so the
    count is kept multiplicatively (one divide/multiply per step).  The
    one size walk: the three cost functions read it along an order, and
    :func:`optimal_order`'s subset DP along each subset's steps.
    """
    extents = [int(s) for s in shape]
    sizes = [math.prod(extents)]
    for idx in order:
        mode, j = sig[idx]
        old = extents[mode]
        extents[mode] = j
        # A zero extent leaves nothing to divide by: recount instead.
        sizes.append(sizes[-1] // old * j if old else math.prod(extents))
    return sizes


def _walk(
    shape: Sequence[int], steps: Sequence[ChainStep], order: Sequence[int] | None
) -> tuple:
    """Validate *steps* and walk them: ``(signature, order, sizes)``."""
    sig = _check_chain(shape, steps)
    if order is None:
        order = range(len(sig))
    return sig, order, _running_sizes(shape, sig, order)


def chain_flops(shape: Sequence[int], steps: Sequence[ChainStep],
                order: Sequence[int] | None = None) -> int:
    """Total flops of executing *steps* in the given order (indices into
    *steps*; default: as given).

    Each product costs ``2 * J_n * prod(current shape)``.
    """
    sig, order, sizes = _walk(shape, steps, order)
    return sum(2 * sig[idx][1] * sizes[k] for k, idx in enumerate(order))


def chain_intermediate_bytes(
    shape: Sequence[int],
    steps: Sequence[ChainStep],
    order: Sequence[int] | None = None,
    itemsize: int = 8,
) -> tuple[int, int]:
    """(total, peak) bytes of the intermediates an order materializes.

    *total* sums the output tensor of every step (the write traffic the
    chain generates beyond reading X itself); *peak* is the largest
    single intermediate — the quantity that sizes the scratch pool.
    """
    _, _, sizes = _walk(shape, steps, order)
    outputs = sizes[1:]
    return sum(outputs) * itemsize, max(outputs, default=0) * itemsize


def chain_cost(
    shape: Sequence[int],
    steps: Sequence[ChainStep],
    order: Sequence[int] | None = None,
    itemsize: int = 8,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> float:
    """Memory-and-intensity-aware cost of an order, in byte-equivalents.

    Each step is charged its data movement — reading the current
    intermediate plus writing the next — and its flops converted at the
    machine-balance ratio *flops_per_byte*.  Minimizing this favors the
    flop-minimal order when the chain is compute-bound and the
    smallest-intermediates order when it is bandwidth-bound, which is
    what the fused executor's wall clock actually tracks.
    """
    sig, order, sizes = _walk(shape, steps, order)
    cost = 0.0
    for k, idx in enumerate(order):
        cost += (sizes[k] + sizes[k + 1]) * itemsize
        cost += 2.0 * sig[idx][1] * sizes[k] / flops_per_byte
    return cost


def greedy_order(shape: Sequence[int], steps: Sequence[ChainStep]) -> tuple[int, ...]:
    """The minimum-flop execution order, by the exchange criterion.

    For two adjacent steps a, b over current size S the costs are
    ``2 J_a S + 2 J_b S J_a/I_a`` vs the swapped form, and a-first wins
    exactly when ``1/J_a - 1/I_a > 1/J_b - 1/I_b``.  The criterion is a
    per-step constant, so sorting by it (descending) is globally optimal
    — an exchange-argument scheduling result, validated against the
    brute-force :func:`optimal_order` in tests.  Ties broken by mode
    index for determinism.
    """
    return _greedy(shape, _check_chain(shape, steps))


def _greedy(shape: Sequence[int], sig) -> tuple[int, ...]:
    """:func:`greedy_order` of an already validated signature."""

    def criterion(idx: int) -> float:
        mode, j = sig[idx]
        return 1.0 / j - 1.0 / shape[mode]

    return tuple(
        sorted(range(len(sig)), key=lambda i: (-criterion(i), sig[i][0]))
    )


def optimal_order(
    shape: Sequence[int],
    steps: Sequence[ChainStep],
    cost: str = "flops",
    itemsize: int = 8,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> tuple[int, ...]:
    """The exactly minimal execution order, by subset dynamic program.

    *cost* selects the objective: ``"flops"`` (the classic count) or
    ``"roofline"`` (:func:`chain_cost`'s byte-equivalents, pricing
    intermediate traffic against compute).  The DP memoizes intermediate
    sizes per applied-step subset (:func:`_running_sizes`) and runs in
    O(2^N * N) instead of the old O(N!) permutation scan; chains longer
    than :data:`MAX_OPTIMAL_STEPS` raise :class:`ValueError` explicitly
    instead of silently burning exponential time — use the greedy order
    there.
    """
    sig = _check_chain(shape, steps)
    n = len(sig)
    if n == 0:
        return ()
    if n > MAX_OPTIMAL_STEPS:
        raise ValueError(
            f"optimal_order is exponential in the chain length and is "
            f"capped at {MAX_OPTIMAL_STEPS} steps; got {n} — use "
            f"greedy_order for long chains"
        )
    if cost not in ("flops", "roofline"):
        raise ValueError(f"cost must be 'flops' or 'roofline', got {cost!r}")
    # The running size depends only on *which* steps were applied.
    sizes = [
        _running_sizes(shape, sig, [k for k in range(n) if mask >> k & 1])[-1]
        for mask in range(1 << n)
    ]

    def step_cost(idx: int, mask_before: int) -> float:
        before = sizes[mask_before]
        flops = 2.0 * sig[idx][1] * before
        if cost == "flops":
            return flops
        after = sizes[mask_before | (1 << idx)]
        return (before + after) * itemsize + flops / flops_per_byte

    full = (1 << n) - 1
    best: dict[int, float] = {0: 0.0}
    choice: dict[int, int] = {}
    for mask in range(1, full + 1):
        best_cost = None
        best_last = -1
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            idx = low.bit_length() - 1
            prev_mask = mask ^ low
            candidate = best[prev_mask] + step_cost(idx, prev_mask)
            # Ties prefer the largest index as the *last* step, which
            # unrolls to mode-ascending execution — the same convention
            # greedy_order's tie-break uses, and measurably the better
            # side of the tie in row-major storage (early steps keep the
            # unit-stride merge large).
            if best_cost is None or candidate < best_cost or (
                candidate == best_cost and idx > best_last
            ):
                best_cost, best_last = candidate, idx
        best[mask] = best_cost
        choice[mask] = best_last
    order: list[int] = []
    mask = full
    while mask:
        idx = choice[mask]
        order.append(idx)
        mask ^= 1 << idx
    return tuple(reversed(order))


# -- the chain plan ------------------------------------------------------------


@dataclass(frozen=True)
class ChainPlan:
    """A fully planned TTM chain: order, per-step plans, buffer schedule.

    *order* indexes into the caller's step sequence; ``step_plans[k]``
    is the :class:`TtmPlan` for the k-th *executed* product (i.e. for
    step ``order[k]``), built against the intermediate shape at that
    point.  The plan also fixes the scratch schedule: every intermediate
    (all but the final product) lands in one of two ping-pong slots, so
    the executor's allocation count is a property of the plan, not of
    the data.  :attr:`total_flops` and :attr:`scratch_elements`, which
    every ``chain-exec`` span reports, are computed once per plan.
    """

    shape: tuple[int, ...]
    layout: Layout
    dtype: str
    order: tuple[int, ...]
    step_plans: tuple[TtmPlan, ...]

    def __post_init__(self) -> None:
        if len(self.order) != len(self.step_plans):
            raise PlanError(
                f"chain order has {len(self.order)} entries but "
                f"{len(self.step_plans)} step plans"
            )
        if sorted(self.order) != list(range(len(self.order))):
            raise PlanError(
                f"chain order {self.order!r} is not a permutation"
            )
        current = self.shape
        for k, plan in enumerate(self.step_plans):
            if plan.shape != current:
                raise PlanError(
                    f"chain step {k} plans shape {plan.shape} but the "
                    f"running intermediate is {current}; step plans must "
                    "chain through the evolving shapes"
                )
            if plan.layout is not self.layout or plan.dtype != self.dtype:
                raise PlanError(
                    f"chain step {k} plan is {plan.layout.name}/{plan.dtype}, "
                    f"chain is {self.layout.name}/{self.dtype}"
                )
            current = plan.out_shape

    # -- derived geometry ---------------------------------------------------

    @property
    def n_steps(self) -> int:
        return len(self.step_plans)

    @property
    def out_shape(self) -> tuple[int, ...]:
        """Shape of the final product."""
        if not self.step_plans:
            return self.shape
        return self.step_plans[-1].out_shape

    @property
    def intermediate_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Output shape of every step, in execution order."""
        return tuple(plan.out_shape for plan in self.step_plans)

    @cached_property
    def total_flops(self) -> int:
        return sum(plan.total_flops for plan in self.step_plans)

    @property
    def itemsize(self) -> int:
        return np.dtype(self.dtype).itemsize

    @property
    def peak_intermediate_bytes(self) -> int:
        """The largest single intermediate the chain materializes."""
        if not self.step_plans:
            return 0
        return max(
            math.prod(s) * self.itemsize for s in self.intermediate_shapes
        )

    @cached_property
    def scratch_elements(self) -> tuple[int, ...]:
        """Element capacity of each ping-pong slot the executor needs.

        Steps ``0, 2, 4, ...`` write slot 0 and steps ``1, 3, ...`` write
        slot 1 — except the final step, which writes the caller's output.
        Empty when the chain has a single step (nothing intermediate).
        """
        slots = [0, 0]
        for k, plan in enumerate(self.step_plans[:-1]):
            size = math.prod(plan.out_shape)
            slot = k % 2
            slots[slot] = max(slots[slot], size)
        return tuple(s for s in slots if s > 0)

    def describe(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        out = "x".join(str(s) for s in self.out_shape)
        order = ",".join(str(i) for i in self.order) or "-"
        return (
            f"ChainPlan[{dims} -> {out} steps={self.n_steps} "
            f"order=({order}) {self.layout.name} dtype={self.dtype} "
            f"scratch={len(self.scratch_elements)}x"
            f"({'/'.join(str(e) for e in self.scratch_elements) or '0'}) "
            f"flops={self.total_flops}]"
        )


def _schedule(
    shape: tuple[int, ...],
    sig: Sequence[tuple[int, int]],
    order: "str | Sequence[int]",
    itemsize: int,
    flops_per_byte: float,
) -> tuple[int, ...]:
    """The execution order *order* names for the chain *sig* on *shape*.

    ``"auto"`` is the exact roofline-cost order for chains up to
    :data:`MAX_OPTIMAL_STEPS` (greedy beyond), ``"greedy"`` and
    ``"optimal"`` (flops) name the two orderers, ``"given"`` keeps the
    sequence, and anything else must be a permutation of its indices.
    """
    if not isinstance(order, str):
        schedule = tuple(int(i) for i in order)
        if sorted(schedule) != list(range(len(sig))):
            raise ShapeError(
                f"order {schedule!r} is not a permutation of the chain"
            )
        return schedule
    if order == "auto":
        if len(sig) > MAX_OPTIMAL_STEPS:
            return _greedy(shape, sig)
        return optimal_order(
            shape, sig, cost="roofline", itemsize=itemsize,
            flops_per_byte=flops_per_byte,
        )
    if order == "greedy":
        return _greedy(shape, sig)
    if order == "optimal":
        return optimal_order(shape, sig)
    if order == "given":
        return tuple(range(len(sig)))
    raise ShapeError(
        f"order must be 'auto', 'greedy', 'optimal', 'given', or a "
        f"permutation, got {order!r}"
    )


def plan_chain(
    shape: Sequence[int],
    steps: Sequence["ChainStep | tuple[int, int]"],
    layout: Layout | str = Layout.ROW_MAJOR,
    dtype=None,
    order: "str | Sequence[int]" = "auto",
    planner: Callable[..., TtmPlan] | None = None,
    itemsize: int | None = None,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> ChainPlan:
    """Plan a whole chain: choose the order, pre-build every step plan.

    *steps* may be :class:`ChainStep` objects or plain ``(mode, J)``
    signature pairs — planning needs only the geometry.  *order* is
    ``"auto"`` (default: the exact subset DP under the roofline cost for
    chains up to :data:`MAX_OPTIMAL_STEPS`, greedy beyond), ``"greedy"``,
    ``"optimal"`` (exact, flops objective), ``"given"``, or an explicit
    permutation.  *planner* builds each per-step plan — signature
    ``planner(shape, mode, j, layout, dtype=...)`` — and defaults to the
    memoized :func:`repro.core.inttm.default_plan`; :class:`repro.core
    .intensli.InTensLi` passes its own :meth:`~repro.core.intensli
    .InTensLi.plan` here so chain steps hit the persistent autotune
    store.
    """
    shape_t = check_shape(shape)
    return _plan_signature(
        shape_t, _check_chain(shape_t, steps), Layout.parse(layout),
        np.dtype("float64" if dtype is None else dtype), order,
        planner=planner, itemsize=itemsize, flops_per_byte=flops_per_byte,
    )


def _plan_signature(
    shape: tuple[int, ...],
    sig: Sequence[tuple[int, int]],
    layout: Layout,
    dtype: np.dtype,
    order: "str | Sequence[int]",
    planner: Callable[..., TtmPlan] | None = None,
    itemsize: int | None = None,
    flops_per_byte: float = DEFAULT_FLOPS_PER_BYTE,
) -> ChainPlan:
    """:func:`plan_chain` for an already validated ``(mode, J)`` signature."""
    from repro.core.inttm import _default_planner

    schedule = _schedule(
        shape, sig, order, dtype.itemsize if itemsize is None else itemsize,
        flops_per_byte,
    )
    if planner is None:
        planner = _default_planner
    current = shape
    step_plans: list[TtmPlan] = []
    for idx in schedule:
        mode, j = sig[idx]
        plan = planner(current, mode, j, layout, dtype=dtype.name)
        step_plans.append(plan)
        current = plan.out_shape
    return ChainPlan(
        shape=shape,
        layout=layout,
        dtype=dtype.name,
        order=schedule,
        step_plans=tuple(step_plans),
    )


@functools.lru_cache(maxsize=256)
def _standalone_chain_plan(
    shape: tuple[int, ...],
    sig: tuple[tuple[int, int], ...],
    layout: Layout,
    dtype: np.dtype,
    order: "str | tuple[int, ...]",
) -> ChainPlan:
    """The standalone chain planner: :func:`_plan_signature`, memoized.

    What :func:`ttm_chain` plans with when no :class:`~repro.core
    .intensli.InTensLi` supplies its own.  Pure in its (hashable)
    arguments, like :func:`~repro.core.inttm._default_planner`, so a
    repeated chain reuses its schedule and step plans instead of
    re-planning the whole chain on every call.
    """
    return _plan_signature(shape, sig, layout, dtype, order)


# -- the scratch pool ----------------------------------------------------------


class ScratchPool:
    """Reusable ping-pong buffers for chain intermediates.

    One flat backing array per (slot, layout, dtype); a request returns
    a :class:`DenseTensor` *view* of its prefix reshaped to the step's
    output shape — copy-free in both storage orders, since any prefix of
    a flat buffer reshapes contiguously.  Buffers grow monotonically and
    are reused across steps *and* across chains (HOOI's sweeps request
    the same shapes every iteration), so a long-lived pool converges to
    zero allocations.  ``allocations``/``reuses`` make buffer behavior
    observable: the allocation-count test and the ``chain-exec`` trace
    span read them directly.  Up to 64 views are kept, so a repeated
    request is a dict read, not a reshape (which costs more than a small
    ``np.empty``); a grown buffer drops them.
    """

    def __init__(self) -> None:
        self._slots: dict[tuple, np.ndarray] = {}
        self._views: dict[tuple, DenseTensor] = {}
        self.allocations = 0
        self.reuses = 0

    def request(
        self, slot: int, shape: tuple[int, ...], layout: Layout, dtype
    ) -> DenseTensor:
        """A tensor of *shape* backed by the slot's reusable buffer."""
        view = self._views.get(view_key := (slot, shape, layout, dtype))
        if view is not None:
            self.reuses += 1
            return view
        key = (slot, layout, dtype_name(dtype))
        n = math.prod(shape)
        buf = self._slots.get(key)
        if buf is None or buf.size < n:
            buf = np.empty(n, dtype=dtype)
            self._slots[key] = buf
            self._views.clear()
            self.allocations += 1
        else:
            self.reuses += 1
        if len(self._views) >= 64:
            self._views.clear()
        # A prefix of a flat in-RAM buffer reshapes contiguously in either
        # order, so the checked constructor has nothing to check.
        view = self._views[view_key] = DenseTensor._wrap(
            buf[:n].reshape(shape, order=layout.numpy_order), layout,
            fresh=True,
        )
        return view

    @property
    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._slots.values())

    def release(self) -> int:
        """Drop every buffer; returns the bytes freed."""
        freed = self.nbytes
        self._slots.clear()
        self._views.clear()
        return freed


# -- fused execution -----------------------------------------------------------


def execute_chain(
    x: DenseTensor,
    steps: Sequence[ChainStep],
    plan: ChainPlan,
    out: DenseTensor | None = None,
    pool: ScratchPool | None = None,
    execute: Callable[..., DenseTensor] | None = None,
) -> DenseTensor:
    """Run a planned chain through the ping-pong scratch pool.

    *steps* is the caller's original sequence (the plan's ``order``
    indexes into it); *execute* runs one planned product — signature
    ``execute(plan, x, u, out) -> DenseTensor`` — and defaults to the
    executor's body (:func:`repro.core.inttm.ttm_inplace`'s).  Intermediates
    alternate between the pool's two slots; the final product is written
    into *out* when given, else into a fresh output allocated as the
    executor allocates one (the return value — never scratch).
    """
    from repro.core.inttm import _run_plan
    from repro.obs.tracer import active_tracer

    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    if len(steps) != plan.n_steps:
        raise PlanError(
            f"chain plan has {plan.n_steps} steps, got {len(steps)} matrices"
        )
    if x.shape != plan.shape or x.layout is not plan.layout:
        raise PlanError(
            f"chain plan was built for {plan.shape}/{plan.layout.name}, "
            f"got {x.shape}/{x.layout.name}"
        )
    if out is not None:
        if not isinstance(out, DenseTensor):
            raise TypeError(
                f"out must be a DenseTensor, got {type(out).__name__}"
            )
        if out.shape != plan.out_shape or out.layout is not plan.layout:
            raise PlanError(
                f"out has shape {out.shape}/{out.layout.name}, chain "
                f"produces {plan.out_shape}/{plan.layout.name}"
            )
        if out.data.dtype != plan.dtype:
            raise DtypeError(
                f"out has dtype {out.data.dtype.name}, chain produces "
                f"{plan.dtype}"
            )
    if plan.n_steps == 0:
        if out is not None:
            np.copyto(out.data, x.data)
            return out
        return x
    if execute is None:
        def execute(step_plan, x_cur, u, target):
            return _run_plan(x_cur, u, step_plan, target)
    if pool is None:
        pool = ScratchPool()
    tracer = active_tracer()
    if not tracer.enabled:
        return _run_steps(x, steps, plan, out, pool, execute, None)
    allocations_before = pool.allocations
    reuses_before = pool.reuses
    with tracer.span(
        "chain-exec",
        steps=plan.n_steps,
        order=list(plan.order),
        dtype=plan.dtype,
        flops=plan.total_flops,
        scratch_slots=len(plan.scratch_elements),
        caller_out=out is not None,
    ) as span:
        current = _run_steps(x, steps, plan, out, pool, execute, tracer)
        span.set(
            scratch_allocations=pool.allocations - allocations_before,
            scratch_reuses=pool.reuses - reuses_before,
        )
    return current


def _run_steps(x, steps, plan, out, pool, execute, tracer):
    """:func:`execute_chain`'s loop, with a span per step if traced."""
    last = len(plan.step_plans) - 1
    current = x
    for k, (idx, step_plan) in enumerate(zip(plan.order, plan.step_plans)):
        reused = False
        if k < last:
            reuses = pool.reuses
            target = pool.request(
                k % 2, step_plan.out_shape, plan.layout, plan.dtype
            )
            reused = pool.reuses > reuses
        elif out is None:
            # The executor's own allocation: no re-derived strides.
            compiled = step_plan.compiled
            target = DenseTensor._wrap(
                np.empty(*compiled.empty_args), plan.layout,
                compiled.out_strides,
            )
        else:
            target = out
        if tracer is None:
            current = execute(step_plan, current, steps[idx].matrix, target)
            continue
        with tracer.span(
            "chain-step",
            step=k,
            source_index=idx,
            mode=step_plan.mode,
            j=step_plan.j,
            slot=k % 2 if k < last else None,
            buffer_reused=reused,
            out_shape=list(step_plan.out_shape),
        ):
            current = execute(step_plan, current, steps[idx].matrix, target)
    return current


def ttm_chain(
    x: DenseTensor,
    steps: Sequence["ChainStep | tuple[int, np.ndarray]"],
    backend: Callable[[DenseTensor, np.ndarray, int], DenseTensor] | None = None,
    order: "str | Sequence[int]" = "greedy",
    plan: ChainPlan | None = None,
    out: DenseTensor | None = None,
    pool: ScratchPool | None = None,
) -> DenseTensor:
    """Execute a chain of mode-n products.

    *steps* may be ``ChainStep`` objects or plain ``(mode, matrix)``
    pairs; matrices must match the tensor's dtype (mixed supported float
    widths raise :class:`~repro.util.errors.DtypeError`; non-float input
    is materialized in the tensor's dtype).  *order* is ``"greedy"``
    (default), ``"auto"`` (roofline-aware exact order), ``"given"``,
    ``"optimal"``, or an explicit index sequence.

    Execution takes one of two paths:

    * **fused** (default): the chain is planned as a unit — a
      :class:`ChainPlan` built here, or passed via *plan* — and executed
      through the ping-pong scratch pool, writing the final product into
      *out* when given;
    * **step-at-a-time**: when an explicit *backend* callable is given
      (``backend(x, u, mode) -> DenseTensor``), each product runs through
      it in the chosen order, allocating per step.  This is the honest
      path for baseline backends and remains exactly the pre-fusion
      behavior.
    """
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    if backend is None:
        return _fused_chain(x, steps, order, out, pool, plan=plan)
    steps_t = _coerce_steps(steps, x.data.dtype)
    sig = _check_chain(x.shape, steps_t)
    if plan is not None:
        raise PlanError(
            "pass either a step-at-a-time backend or a fused ChainPlan, "
            "not both"
        )
    if out is not None:
        raise PlanError(
            "out= requires the fused executor; step-at-a-time backends "
            "allocate their own outputs"
        )
    schedule = _schedule(
        x.shape, sig, order, x.data.dtype.itemsize, DEFAULT_FLOPS_PER_BYTE
    )
    y = x
    for idx in schedule:
        step = steps_t[idx]
        y = backend(y, step.matrix, step.mode)
    return y


def _fused_chain(
    x: DenseTensor,
    steps: Sequence["ChainStep | tuple[int, np.ndarray]"],
    order: "str | Sequence[int]",
    out: DenseTensor | None,
    pool: ScratchPool | None,
    plan: ChainPlan | None = None,
    plan_signature: Callable[..., ChainPlan] = _standalone_chain_plan,
    execute: Callable[..., DenseTensor] | None = None,
    transpose: bool = False,
) -> DenseTensor:
    """The fused front end of :func:`ttm_chain` and :meth:`repro.core
    .intensli.InTensLi.ttm_chain`: normalize and validate the steps once,
    before the first product, plan from the parsed ``(mode, J)``
    signature with ``plan_signature(shape, sig, layout, dtype, order)``
    unless *plan* is given, and run it through :func:`execute_chain`.
    """
    steps_t = _coerce_steps(steps, x.data.dtype, transpose)
    sig = _check_chain(x.shape, steps_t)
    if plan is None:
        if not isinstance(order, str):
            order = tuple(order)
        plan = plan_signature(x.shape, sig, x.layout, x.data.dtype, order)
    return execute_chain(x, steps_t, plan, out=out, pool=pool, execute=execute)
