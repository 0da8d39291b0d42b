"""Estimator-driven tiling: TTM for tensors larger than the memory budget.

When a TTM's working set exceeds the budget — the normal state of
memmap-backed tensors — the :class:`TilingPlanner` turns the memory guard
(:mod:`repro.resilience.memory`) from a bouncer into a planner.  Mode-``n``
TTM is embarrassingly tileable over every mode except ``n``
(``Y[b] = X[b] x_n U`` for any block ``b``, no partial sums), so the
planner cuts the non-contracted modes into block ranges
(:func:`repro.distributed.grid.tile_grid`), outermost storage mode first.
Every tile runs in place, as a strided view of X and Y: its plan's
merged mode runs must nest on the tile's own strides (Lemma 4.1,
:func:`runs_in_place`), and a unit whose plan's runs do not is replanned
at the highest degree whose runs do.  Nothing is copied into scratch.

A tile is one more loop level of the paper's Algorithm 2 over views of
the same operands, and this module runs that level once.  Every
out-of-core unit — a tile of :func:`execute_tiled` or a chunk of
:func:`ttm_stream` — goes through one plan/run/land/commit loop
(:func:`_run_units`), which plans each distinct unit shape once with the
configured planner.  A stream with ``axis != mode`` is a tiling whose
input tiles come from an iterator; with ``axis == mode`` it is a k-split
whose units accumulate into one output (GEMM's ``beta=1``).

Failure atomicity: :func:`execute_tiled` pre-flights every tile (its
plan and the ``alloc-fail`` checkpoint) before the first output
byte is written, so a run that cannot complete leaves its output
untouched.  An ``out_path`` result is staged in ``<out_path>.partial``
and published only when complete, and ``journal_path=`` adds a
checksummed commit record per unit, opened, resumed and closed through
recovery's one journal lifecycle, so a killed job resumes from its last
committed unit (:mod:`repro.resilience.recovery`).
"""

from __future__ import annotations

import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from repro.core.inttm import _default_planner, ttm_inplace
from repro.core.plan import TtmPlan
from repro.distributed.grid import tile_grid
from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters
from repro.resilience.faults import active_faults
from repro.resilience.memory import (
    MEM_LIMIT_ENV,
    available_bytes,
    descending_degree_plans,
    pinned_budget,
    plan_footprint_bytes,
    preflight_skips,
)
from repro.resilience.recovery import (
    Journal,
    _check_tiles,
    _count_resume,
    _journaled,
    _resume_sidecar,
    atomic_save_array,
    digest_payload,
    fingerprint_array,
    fingerprint_tensor,
    memmap_path,
    partial_path,
    region_checksum,
)
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import Layout
from repro.tensor.views import merged_stride
from repro.util.dtypes import dtype_name, match_dtype
from repro.util.errors import (
    DtypeError,
    LayoutError,
    RecoveryError,
    ResourceError,
    ShapeError,
)
from repro.util.validation import check_mode, check_shape

#: ``planner(shape, mode, j, layout, dtype=...) -> TtmPlan`` — the seam
#: through which tiling reuses whatever planning the caller has (the
#: estimator via :meth:`repro.core.intensli.InTensLi.plan`, or the
#: memoized maximal default of :mod:`repro.core.inttm`).
Planner = Callable[..., TtmPlan]


def _tile_count(extent: int, parts: int) -> int:
    return 1 if extent == 0 else min(parts, extent)


def _max_block(extent: int, parts: int) -> int:
    if extent == 0:
        return 0
    return -(-extent // _tile_count(extent, parts))


@dataclass(frozen=True)
class TileSpec:
    """One tile of a tiled TTM: where it reads and where it writes."""

    index: int
    ranges: tuple[tuple[int, int], ...]
    mode: int
    j: int

    @property
    def tile_shape(self) -> tuple[int, ...]:
        return tuple(hi - lo for lo, hi in self.ranges)

    @property
    def out_tile_shape(self) -> tuple[int, ...]:
        shape = list(self.tile_shape)
        shape[self.mode] = self.j
        return tuple(shape)

    @property
    def in_slices(self) -> tuple[slice, ...]:
        return tuple(slice(lo, hi) for lo, hi in self.ranges)

    @property
    def out_slices(self) -> tuple[slice, ...]:
        return tuple(
            slice(0, self.j) if m == self.mode else slice(lo, hi)
            for m, (lo, hi) in enumerate(self.ranges)
        )

    @property
    def size(self) -> int:
        return math.prod(self.tile_shape)


@dataclass(frozen=True)
class TilingPlan:
    """How (and whether) one TTM input is cut into budget-sized tiles.

    ``parts[m]`` is the number of blocks mode *m* is cut into
    (``parts[mode] == 1`` always — the contracted mode is never split).
    """

    shape: tuple[int, ...]
    mode: int
    j: int
    layout: Layout
    dtype: str
    parts: tuple[int, ...]
    budget: int | None
    base_footprint_bytes: int
    tile_footprint_bytes: int
    #: Always False (every tile runs in place); kept so the decision's
    #: :meth:`to_dict`, golden fixture and journal digests stay as written.
    packed: bool
    reason: str

    @property
    def tiled(self) -> bool:
        return any(p > 1 for p in self.parts)

    @property
    def n_tiles(self) -> int:
        return math.prod(
            _tile_count(e, p) for e, p in zip(self.shape, self.parts)
        )

    @property
    def max_tile_shape(self) -> tuple[int, ...]:
        return tuple(_max_block(e, p) for e, p in zip(self.shape, self.parts))

    @property
    def out_shape(self) -> tuple[int, ...]:
        return (
            self.shape[: self.mode] + (self.j,) + self.shape[self.mode + 1 :]
        )

    def tiles(self) -> Iterator[TileSpec]:
        """Every tile in odometer order; their union partitions the input."""
        for index, ranges in enumerate(tile_grid(self.shape, self.parts)):
            yield TileSpec(index=index, ranges=ranges, mode=self.mode, j=self.j)

    @classmethod
    def from_dict(cls, info: dict) -> "TilingPlan":
        """Rebuild a tiling decision from its :meth:`to_dict` form.

        The recovery journal (:mod:`repro.resilience.recovery`) records
        the decision in its header so a resumed job executes the *same*
        geometry that wrote the committed tiles — replanning on resume
        could legally choose different tiles (a different live-memory
        probe) and orphan every committed record.
        """
        return cls(
            shape=tuple(int(s) for s in info["shape"]),
            mode=int(info["mode"]),
            j=int(info["j"]),
            layout=Layout.parse(info["layout"]),
            dtype=str(info["dtype"]),
            parts=tuple(int(p) for p in info["parts"]),
            budget=None if info.get("budget") is None else int(info["budget"]),
            base_footprint_bytes=int(info.get("base_footprint_bytes", 0)),
            tile_footprint_bytes=int(info.get("tile_footprint_bytes", 0)),
            packed=bool(info.get("packed", False)),
            reason=str(info.get("reason", "restored")),
        )

    def to_dict(self) -> dict:
        """JSON-safe form (golden fixtures, the ``tile explain`` CLI)."""
        return {
            "shape": list(self.shape),
            "mode": self.mode,
            "j": self.j,
            "layout": self.layout.name,
            "dtype": self.dtype,
            "parts": list(self.parts),
            "budget": self.budget,
            "base_footprint_bytes": self.base_footprint_bytes,
            "tile_footprint_bytes": self.tile_footprint_bytes,
            "n_tiles": self.n_tiles,
            "max_tile_shape": list(self.max_tile_shape),
            "packed": self.packed,
            "reason": self.reason,
        }

    def describe(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        cuts = "x".join(str(p) for p in self.parts)
        return (
            f"TilingPlan[{dims} mode={self.mode} J={self.j} parts={cuts} "
            f"tiles={self.n_tiles} "
            f"tile~{self.tile_footprint_bytes}B budget={self.budget} "
            f"({self.reason})]"
        )


class TilingPlanner:
    """Decide tile geometry so the per-tile footprint fits the budget.

    The planner splits greedily, outermost-storage-mode first: it doubles
    the cut count of the preferred axis until either the footprint fits
    or the axis is fully split, then moves inward.  A partial cut thus
    always lands on the outermost non-unit mode of a merged run, where
    the run still nests (:func:`runs_in_place`), so every tile runs in
    place with nothing staged.  The footprint of a candidate cut is
    priced with a *real* plan for the maximal tile shape (the configured
    planner — estimator or default — adapts degree, batching, and kernel
    to the tile).
    """

    def __init__(self, planner: Planner | None = None) -> None:
        self._planner = planner or _default_planner

    def plan(
        self,
        base_plan: TtmPlan,
        budget: int | None = None,
        out_preallocated: bool = False,
    ) -> TilingPlan:
        """A :class:`TilingPlan` for *base_plan* under *budget* bytes.

        *budget* defaults to a fresh :func:`available_bytes` probe.  When
        the un-tiled footprint already fits (or the budget is unknowable)
        the result is the trivial single-tile plan; when even one-element
        tiles cannot fit, :class:`ResourceError` — the budget is smaller
        than any kernel working set, and tiling cannot help.
        """
        tracer = active_tracer()
        if not tracer.enabled:
            return self._plan_impl(base_plan, budget, out_preallocated)
        with tracer.span(
            "tile-plan",
            shape=list(base_plan.shape),
            mode=base_plan.mode,
            j=base_plan.j,
            layout=base_plan.layout.name,
            dtype=base_plan.dtype,
        ) as span:
            tiling = self._plan_impl(base_plan, budget, out_preallocated)
            span.set(
                parts=list(tiling.parts),
                n_tiles=tiling.n_tiles,
                max_tile_shape=list(tiling.max_tile_shape),
                budget=tiling.budget,
                tile_footprint_bytes=tiling.tile_footprint_bytes,
                reason=tiling.reason,
            )
        return tiling

    def _plan_impl(
        self, base_plan: TtmPlan, budget: int | None, out_preallocated: bool
    ) -> TilingPlan:
        shape = base_plan.shape
        order = len(shape)
        need = plan_footprint_bytes(
            base_plan, allocate_out=not out_preallocated
        )
        if budget is None:
            budget = available_bytes()
        parts = [1] * order

        def finished(reason: str, foot: int) -> TilingPlan:
            return TilingPlan(
                shape=shape,
                mode=base_plan.mode,
                j=base_plan.j,
                layout=base_plan.layout,
                dtype=base_plan.dtype,
                parts=tuple(parts),
                budget=budget,
                base_footprint_bytes=need,
                tile_footprint_bytes=foot,
                packed=False,
                reason=reason,
            )

        if budget is None or need <= budget or 0 in shape:
            return finished("fits-in-budget", need)

        # Split preference: outermost storage mode first (contiguous
        # view tiles), inward from there; never the contracted mode.
        if base_plan.layout is Layout.ROW_MAJOR:
            axes = [a for a in range(order) if a != base_plan.mode]
        else:
            axes = [a for a in reversed(range(order)) if a != base_plan.mode]

        while True:
            foot = self._tile_footprint(base_plan, parts)
            if foot <= budget:
                if not any(p > 1 for p in parts):
                    # Transients already fit; the overage was entirely
                    # the output allocation, which tiling cannot shrink —
                    # the executor routes it out of core (or refuses).
                    return finished("output-dominates", foot)
                return finished("tiled-to-budget", foot)
            advanced = False
            for axis in axes:
                if parts[axis] < shape[axis]:
                    parts[axis] = min(shape[axis], parts[axis] * 2)
                    advanced = True
                    break
            if not advanced:
                raise ResourceError(
                    f"TTM for shape {shape} mode {base_plan.mode} "
                    f"J={base_plan.j} cannot be tiled into a {budget}-byte "
                    f"budget: even one-element tiles need ~{foot} bytes "
                    f"(kernel working set); raise ${MEM_LIMIT_ENV}"
                )

    def _tile_footprint(self, base_plan: TtmPlan, parts: Sequence[int]) -> int:
        """Bytes the largest tile of the current cut allocates: its
        plan's kernel working sets, since a tile writes into its output
        view and stages nothing."""
        tshape = tuple(
            _max_block(e, p) for e, p in zip(base_plan.shape, parts)
        )
        tile_plan = self._planner(
            tshape, base_plan.mode, base_plan.j, base_plan.layout,
            dtype=base_plan.dtype,
        )
        return plan_footprint_bytes(tile_plan, allocate_out=False)


def runs_in_place(
    plan: TtmPlan, x_strides: Sequence[int], y_strides: Sequence[int]
) -> bool:
    """Lemma 4.1 on a tile: whether *plan* runs copy-free on these strides.

    *x_strides*/*y_strides* are the element strides of the tile's input
    and output views — a tile of a layout-contiguous tensor keeps its
    parent's strides.  The generated kernel (every degrade tier too)
    reshapes each run of modes it merges — the component run ``M_C``
    and the batch run — into one matrix dimension, and a reshape is a
    view exactly when the run's strides nest (:func:`~repro.tensor.views
    .merged_stride`).  A split on a run's outermost mode keeps the
    nesting; a split inside a run breaks it, and that tile's unit is
    replanned at a degree whose runs nest (:func:`_plan_unit`).
    """
    try:
        for run in (plan.component_modes, plan.batch_modes):
            if run:
                merged_stride(x_strides, plan.shape, run)
                merged_stride(y_strides, plan.out_shape, run)
    except LayoutError:
        return False
    return True


def tiling_opportunity(
    plan: TtmPlan, x_inmem: bool = True, out_given: bool = False
) -> int | None:
    """The budget this call would exceed, or None on the fast path.

    Mirrors the guard's engagement logic so the hot path pays the same
    (near-zero) cost it already paid: small in-memory calls with no env
    cap and no armed faults skip the probe entirely.  Out-of-core
    operands always probe — that is what the flag is for.
    """
    need = plan_footprint_bytes(plan, allocate_out=not out_given)
    if preflight_skips(need, x_inmem):
        return None
    budget = available_bytes()
    if budget is None or need <= budget:
        return None
    return budget


class _Unit(NamedTuple):
    """One tile or stream chunk, its views and record read once."""

    index: int
    ranges: tuple[tuple[int, int], ...]
    x: np.ndarray
    layout: Layout
    u: np.ndarray
    #: Where the result lands; None allocates a fresh output.
    out: np.ndarray | None
    accumulate: bool
    #: The journal commit record, less its checksum.
    record: dict


def _element_strides(a: np.ndarray) -> tuple[int, ...]:
    return tuple(s // a.itemsize for s in a.strides)


def _plan_unit(plans: dict, planner: Planner, unit: _Unit, mode: int,
               j: int) -> tuple[TtmPlan, tuple, tuple | None]:
    """The plan for *unit* and its views' element strides (None for a
    fresh output), decided once per distinct unit shape and strides.

    A plan whose merged runs do not nest on those strides
    (:func:`runs_in_place`) gives way to the highest degree whose runs
    do, batched before unbatched; degree 0 unbatched merges nothing, so
    one always exists.
    """
    key = (unit.x.shape, unit.layout, unit.x.dtype, unit.x.strides,
           None if unit.out is None else unit.out.strides)
    found = plans.get(key)
    if found is None:
        plan = planner(
            unit.x.shape, mode, j, unit.layout, dtype=dtype_name(unit.x.dtype)
        )
        x_strides = _element_strides(unit.x)
        out_strides = None if unit.out is None else _element_strides(unit.out)
        y_strides = out_strides or plan.out_strides
        if not runs_in_place(plan, x_strides, y_strides):
            plan = next(
                candidate
                for candidate in descending_degree_plans(plan, plan.degree)
                if runs_in_place(candidate, x_strides, y_strides)
            )
        found = plans[key] = (plan, x_strides, out_strides)
    return found


def _run_units(units: Iterable[_Unit], mode: int, j: int, planner: Planner,
               plans: dict, counter: str, journal=None, state_path=None):
    """Plan, run, land and commit each unit of an out-of-core TTM.

    Every unit runs :func:`~repro.core.inttm.ttm_inplace` on its views,
    with the plan :func:`_plan_unit` proved copy-free on their strides.
    The loop yields ``(unit, result)`` *before* committing the unit, so a
    stream's commit follows its consumer's next pull; a drained loop
    commits each unit as soon as it has run.  The commit checks the
    ``crash`` fault point at ``<type>-commit`` (output bytes written,
    record not yet journaled), lands the unit — the region CRC of its
    output, or for an accumulator the durably published *state_path*
    sidecar — and appends its record.
    """
    tracer = active_tracer()
    faults = active_faults()
    counters = active_hot_counters()
    for unit in units:
        plan, x_strides, out_strides = _plan_unit(
            plans, planner, unit, mode, j
        )
        span = (
            tracer.span(
                "tile-exec", tile=unit.index,
                ranges=[list(r) for r in unit.ranges],
                tile_shape=list(unit.x.shape), degree=plan.degree,
            )
            if tracer.enabled
            else nullcontext()
        )
        with span:
            y = ttm_inplace(
                DenseTensor._wrap(unit.x, unit.layout, x_strides),
                unit.u, plan=plan,
                out=None if unit.out is None
                else DenseTensor._wrap(unit.out, unit.layout, out_strides),
                accumulate=unit.accumulate,
            )
        if counters is not None:
            counters.add(counter)
        yield unit, y
        if journal is not None:
            rtype = unit.record["type"]
            if faults is not None:
                faults.check("crash", site=f"{rtype}-commit",
                             **{rtype: unit.index})
            if unit.accumulate:
                crc = atomic_save_array(state_path, y.data, journal)
            else:
                crc = region_checksum(y.data)
            journal.append({**unit.record, "crc": crc})


def execute_tiled(
    x: DenseTensor,
    u: np.ndarray,
    tiling: TilingPlan,
    out: DenseTensor | None = None,
    out_path=None,
    planner: Planner | None = None,
    check_finite: bool = False,
    journal_path=None,
) -> DenseTensor:
    """Run a TTM tile by tile per *tiling*, bounded by its budget.

    Each tile runs through :func:`~repro.core.inttm.ttm_inplace` with its
    own plan from *planner* into a preallocated output tile.  The output
    is, in order of preference, the
    caller's *out*, a fresh memmap at *out_path*, or an in-RAM
    allocation — refused with :class:`ResourceError` when the full
    output alone exceeds the budget and no disk destination was given.

    The budget is **pinned** (:func:`repro.resilience.memory
    .pinned_budget`) for the whole run so per-tile guard probes agree
    with the tiling decision, and every tile is pre-flighted — plans
    built, ``alloc-fail`` checkpoints visited — before the first write,
    so failures leave *out* untouched.

    An *out_path* result lands **complete-or-untouched**: tiles write to
    ``<out_path>.partial``, which is fsync'd and atomically renamed into
    place only after every tile (journal or not) — a file at *out_path*
    is never a torn result.  With a journal beside it, the rename shares
    the journal's one directory fsync at close.  *journal_path*
    additionally makes the run **resumable across process death**
    (:mod:`repro.resilience.recovery`): each completed tile appends a
    checksummed commit record, and a rerun with the same journal
    re-verifies committed tiles against the landed bytes, skips the
    ones that match, and recomputes the rest.  A journal for a
    different job (decision digest or input fingerprints differ) raises
    :class:`~repro.util.errors.RecoveryError`.
    """
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}"
        )
    if x.shape != tiling.shape or x.layout is not tiling.layout:
        raise ShapeError(
            f"tiling is for {tiling.shape}/{tiling.layout.name}, tensor is "
            f"{x.shape}/{x.layout.name}"
        )
    np_dtype = np.dtype(tiling.dtype)
    if x.data.dtype != np_dtype:
        raise DtypeError(
            f"tiling is for dtype {tiling.dtype}, tensor is "
            f"{x.data.dtype.name}"
        )
    u = np.asarray(u)
    if u.ndim != 2 or u.shape != (tiling.j, tiling.shape[tiling.mode]):
        raise ShapeError(
            f"U shape {u.shape} != (J={tiling.j}, "
            f"I_n={tiling.shape[tiling.mode]})"
        )
    if planner is None:
        planner = _default_planner
    final_path = None if out is not None or out_path is None else str(out_path)
    header = u_sidecar = None
    if journal_path is not None:
        header = {
            "kind": "ttm-tiled",
            "digest": digest_payload(tiling.to_dict()),
            "decision": tiling.to_dict(),
            "inputs": {"x": fingerprint_tensor(x),
                       "u": fingerprint_array(u)},
            "out_path": final_path,
            "x_path": memmap_path(x),
        }
        if header["x_path"] is not None and final_path is not None:
            # Both operands reloadable from disk: record a U sidecar so
            # `python -m repro recover resume` can finish the job from
            # the manifest alone, with no caller process.
            u_sidecar = header["u_path"] = f"{journal_path}.u.npy"
    with _journaled(journal_path, header, "tile") as run:
        if u_sidecar is not None and not os.path.exists(u_sidecar):
            atomic_save_array(u_sidecar, u, run.journal)
        if run.done and final_path is not None and os.path.exists(final_path):
            return open_memmap_tensor(final_path, "r+")
        out = _execute_tiled_body(
            x, u, tiling, out, final_path, planner, run.journal, run.committed
        )
        if check_finite:
            from repro.util.validation import check_finite_result

            check_finite_result(out.data, kernel="tiled", context="ttm")
        run.final = {"type": "done", "tiles": tiling.n_tiles}
        if final_path is not None:
            run.land = (partial_path(final_path), final_path)
    return out


def _execute_tiled_body(
    x, u, tiling, out, final_path, planner, journal, committed,
) -> DenseTensor:
    layout = tiling.layout
    np_dtype = np.dtype(tiling.dtype)
    caller_out = out is not None
    with pinned_budget(tiling.budget) as budget:
        if out is None:
            out_bytes = np_dtype.itemsize * math.prod(tiling.out_shape)
            if final_path is not None:
                part = partial_path(final_path)
                if committed and os.path.exists(part):
                    # A resumed run reopens the partial in place so the
                    # committed tiles it holds can be verified and kept.
                    try:
                        candidate = open_memmap_tensor(part, "r+")
                    except Exception:
                        candidate = None
                    if (candidate is not None
                            and candidate.shape == tiling.out_shape
                            and candidate.layout is layout
                            and candidate.data.dtype == np_dtype):
                        out = candidate
                if out is None:
                    committed.clear()  # stale/missing partial: keep nothing
                    out = open_memmap_tensor(
                        part, "w+", shape=tiling.out_shape,
                        dtype=tiling.dtype, layout=layout,
                    )
            elif budget is not None and out_bytes > budget:
                raise ResourceError(
                    f"tiled TTM output needs {out_bytes} bytes in RAM but "
                    f"the budget is {budget}; pass a memmap-backed out= or "
                    "an out_path= to write the result out of core"
                )
            else:
                out = DenseTensor.empty(
                    tiling.out_shape, layout, dtype=tiling.dtype
                )
        else:
            if out.shape != tiling.out_shape or out.layout is not layout:
                raise ShapeError(
                    f"out is {out.shape}/{out.layout.name}, tiling needs "
                    f"{tiling.out_shape}/{layout.name}"
                )
            if out.data.dtype != np_dtype:
                raise DtypeError(
                    f"out has dtype {out.data.dtype.name}, tiling needs "
                    f"{tiling.dtype}"
                )

        units = []
        for spec in tiling.tiles():
            out_view = out.data[spec.out_slices]
            # An empty input tile (I_n == 0) still owes its output zeros.
            if out_view.size:
                units.append(_Unit(
                    spec.index, spec.ranges, x.data[spec.in_slices], layout,
                    u, out_view, False, {"type": "tile", "index": spec.index},
                ))
        # Pre-flight every tile before writing anything: plan it and
        # visit the alloc-fail checkpoint, so a failure at tile k
        # surfaces before tile 0 has written a byte.
        faults = active_faults()
        plans: dict = {}
        for unit in units:
            _plan_unit(plans, planner, unit, tiling.mode, tiling.j)
            if faults is not None:
                faults.check(
                    "alloc-fail", site="tile-scratch", tile=unit.index,
                    bytes=np_dtype.itemsize * (unit.x.size + unit.out.size),
                )

        if committed:
            # Never trust a commit record: re-checksum what actually
            # landed, skip matches, recompute the rest (torn pages from
            # the crash, bit rot, a truncated partial).
            with active_tracer().span(
                "recover-resume", kind="ttm-tiled",
                committed=len(committed), tiles=len(units),
            ) as span:
                kept, recomputed = _check_tiles(tiling, out.data, committed)
                if span is not None:
                    span.set(verified=len(kept), recomputed=len(recomputed))
            _count_resume(len(committed), len(kept))
            units = [unit for unit in units if unit.index not in kept]

        for _ in _run_units(units, tiling.mode, tiling.j, planner, plans,
                            "tiles_executed", journal):
            pass
        counters = active_hot_counters()
        if counters is not None:
            counters.add("tiled_ttms")
        if caller_out:
            # A caller's memmap is theirs to keep: msync it.  A partial of
            # ours needs no msync, publish_file's fsync writes it back.
            out.flush()
    return out


def ttm_tiled(
    x: DenseTensor,
    u: np.ndarray,
    mode: int,
    budget: int | None = None,
    out: DenseTensor | None = None,
    out_path=None,
    planner: Planner | None = None,
    check_finite: bool = False,
    journal_path=None,
) -> DenseTensor:
    """One-call tiled TTM: plan the tiles, then execute them.

    The convenience entry for out-of-core workloads: give it a
    memmap-backed *x*, a *budget* (defaulting to the live
    :func:`available_bytes` probe), and an *out_path*, and the product
    lands on disk without the working set ever exceeding the budget.
    Fits-in-budget inputs degenerate to a single full-tensor "tile" —
    the exact un-tiled execution, no overhead beyond the probe.

    With *journal_path* the run is crash-resumable (see
    :func:`execute_tiled`).  On resume the tiling decision is **adopted
    from the journal**, not replanned: the default budget is a live
    memory probe that legally varies run to run, and a different
    geometry would orphan every committed tile.
    """
    if not isinstance(x, DenseTensor):
        x = DenseTensor(np.asarray(x))
    # Before the journal: an adopted decision must not skip the check.
    mode = check_mode(mode, x.ndim)
    u = match_dtype(u, x.data.dtype)
    if planner is None:
        planner = _default_planner
    tiling = None
    if journal_path is not None and os.path.exists(str(journal_path)):
        try:
            header, _ = Journal.read(journal_path)
        except RecoveryError:
            header = None  # garbage journal; plan fresh, tiles rewrite
        if header is not None and header.get("kind") == "ttm-tiled":
            candidate = TilingPlan.from_dict(header["decision"])
            if (candidate.shape == x.shape
                    and candidate.mode == mode
                    and candidate.j == int(u.shape[0])
                    and candidate.layout is x.layout
                    and candidate.dtype == dtype_name(x.data.dtype)):
                tiling = candidate
    if tiling is None:
        base_plan = planner(
            x.shape, mode, int(np.asarray(u).shape[0]), x.layout,
            dtype=dtype_name(x.data.dtype),
        )
        tiling = TilingPlanner(planner).plan(
            base_plan, budget=budget, out_preallocated=out is not None
        )
    return execute_tiled(
        x, u, tiling, out=out, out_path=out_path, planner=planner,
        check_finite=check_finite, journal_path=journal_path,
    )


def explain_tiling(
    shape: Sequence[int],
    mode: int,
    j: int,
    layout: Layout | str = Layout.ROW_MAJOR,
    dtype=None,
    budget: int | None = None,
    planner: Planner | None = None,
) -> dict:
    """The tiling decision for an input signature, as a JSON-safe dict.

    Backs ``python -m repro tile explain``; raises the same
    :class:`ResourceError` real execution would when the budget is
    un-tileable, so the CLI reports the refusal instead of a geometry.
    """
    layout = Layout.parse(layout)
    if planner is None:
        planner = _default_planner
    dt = np.dtype("float64" if dtype is None else dtype)
    base_plan = planner(check_shape(shape), mode, j, layout, dtype=dt.name)
    tiling = TilingPlanner(planner).plan(base_plan, budget=budget)
    info = tiling.to_dict()
    info["base_plan"] = base_plan.describe()
    info["view_tileable"] = not tiling.packed
    return info


# -- streaming ----------------------------------------------------------------


@dataclass(frozen=True)
class StreamChunk:
    """One emitted partial result: output rows ``lo:hi`` along the axis."""

    lo: int
    hi: int
    data: DenseTensor


def ttm_stream(
    slices: Iterable,
    u: np.ndarray,
    mode: int,
    axis: int = 0,
    layout: Layout | str = Layout.ROW_MAJOR,
    planner: Planner | None = None,
    journal_path=None,
) -> Iterator[StreamChunk]:
    """TTM over tensor slices produced incrementally along *axis*.

    Each element of *slices* is a full-extent sub-tensor cut along
    *axis* (a DenseTensor or ndarray; chunk extents may vary).  Two
    regimes, decided by where the stream axis sits relative to the
    contracted mode:

    ``axis != mode``
        The product distributes over the stream axis:
        ``Y[.., lo:hi, ..] = chunk x_mode U``.  One :class:`StreamChunk`
        is yielded per input chunk, as soon as it is computed — the
        streaming-consumer case (results can be written out or reduced
        immediately; memory never holds more than one chunk).

    ``axis == mode``
        Chunks split the *contracted* index, so each contributes a
        partial sum: ``Y += chunk x_mode U[:, lo:hi]`` (a k-split GEMM
        accumulation, exact in float — addition order matches the
        blocked kernel's).  One final chunk carrying the complete result
        is yielded after the stream ends.  The accumulator takes the
        first chunk's layout; a later chunk in another layout is a
        :class:`~repro.util.errors.LayoutError`.

    Either way each chunk is one unit of the same plan/run/land/commit
    loop :func:`execute_tiled` runs its tiles through, and is traced as
    a ``tile-exec`` span.  The generator is lazy: nothing is consumed
    until iterated.  For the assembled tensor in one call use
    :func:`ttm_stream_collect`.

    *journal_path* gives the stream a **resumable cursor**
    (:mod:`repro.resilience.recovery`): each chunk appends a commit
    record once it is safely the consumer's — after the consumer pulls
    the *next* item (``axis != mode``), or after the accumulator sidecar
    ``<journal_path>.accum.npy`` is durably published (``axis ==
    mode``).  Re-invoking with the same journal and an equivalent stream
    skips the committed prefix: already-consumed chunks are *not*
    re-yielded, and accumulation restarts from the verified sidecar (or
    from scratch when the sidecar fails its checksum).  Skipped chunks
    are still validated against the journal's recorded extents —
    a diverging stream raises :class:`~repro.util.errors.RecoveryError`
    rather than splicing two different streams.
    """
    # Typed before the journal opens; each chunk checks the range.
    for name, value in (("mode", mode), ("axis", axis)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(
                f"{name} must be an int, got {type(value).__name__}"
            )
        if value < 0:
            raise ShapeError(f"{name} must be >= 0, got {value}")
    layout = Layout.parse(layout)
    if planner is None:
        planner = _default_planner
    u = np.asarray(u)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
    j = int(u.shape[0])
    k_split = axis == mode
    header = state_path = None
    if journal_path is not None:
        decision = {"mode": int(mode), "axis": int(axis), "j": j,
                    "layout": layout.name}
        header = {
            "kind": "ttm-stream",
            "digest": digest_payload(decision),
            "decision": decision,
            "inputs": {"u": fingerprint_array(u)},
        }
        if k_split:
            state_path = header["state_path"] = f"{journal_path}.accum.npy"
    with _journaled(journal_path, header, "chunk", key="chunk") as run:
        committed = run.committed
        resume_upto = 0
        while resume_upto in committed:  # contiguous committed prefix
            resume_upto += 1
        saved = None
        if resume_upto and not k_split:
            _count_resume(0, resume_upto)
        elif resume_upto:
            # The cursor is only as good as the accumulator it points
            # into: verify the sidecar against its last commit record,
            # else restart the accumulation from chunk 0.
            if _resume_sidecar(state_path, committed, resume_upto):
                saved = np.load(state_path)
            else:
                resume_upto = 0

        lo = n_chunks = 0
        accum = None

        def units() -> Iterator[_Unit]:
            nonlocal lo, n_chunks, accum
            rest_shape = None
            for i, chunk in enumerate(slices):
                if isinstance(chunk, DenseTensor):
                    x_chunk = chunk
                else:
                    x_chunk = DenseTensor(np.asarray(chunk), layout)
                shape = x_chunk.shape
                if not 0 <= axis < len(shape):
                    raise ShapeError(
                        f"stream axis {axis} out of range for "
                        f"order-{len(shape)} chunks"
                    )
                if not 0 <= mode < len(shape):
                    raise ShapeError(
                        f"mode {mode} out of range for order-{len(shape)} "
                        "chunks"
                    )
                other = shape[:axis] + shape[axis + 1:]
                if rest_shape is None:
                    rest_shape = other
                elif other != rest_shape:
                    raise ShapeError(
                        f"stream chunk has non-axis extents {other}, "
                        f"previous chunks had {rest_shape}"
                    )
                u_arr = match_dtype(u, x_chunk.data.dtype)
                start, lo = lo, lo + shape[axis]
                n_chunks = i + 1
                if k_split:
                    if lo > u_arr.shape[1]:
                        raise ShapeError(
                            f"stream chunks cover {lo} contracted indices, "
                            f"U has only I_n={u_arr.shape[1]} columns"
                        )
                    if accum is None:
                        # The one place the accumulator's layout is
                        # decided: chunk 0's, fresh or resumed.
                        accum = (
                            DenseTensor.zeros(
                                shape[:mode] + (j,) + shape[mode + 1:],
                                x_chunk.layout, dtype=x_chunk.data.dtype,
                            )
                            if saved is None
                            else DenseTensor(saved, x_chunk.layout)
                        )
                    elif x_chunk.layout is not accum.layout:
                        raise LayoutError(
                            f"stream chunk {i} is {x_chunk.layout.name}, "
                            f"the accumulator (chunk 0's layout) is "
                            f"{accum.layout.name}; every chunk of an "
                            "axis == mode stream must share one layout"
                        )
                elif u_arr.shape[1] != shape[mode]:
                    raise ShapeError(
                        f"U shape {u_arr.shape} != (J={j}, "
                        f"I_n={shape[mode]})"
                    )
                if i < resume_upto:
                    record = committed[i]
                    if record.get("lo") != start or record.get("hi") != lo:
                        raise RecoveryError(
                            f"journal {journal_path} committed chunk {i} "
                            f"as rows [{record.get('lo')}, "
                            f"{record.get('hi')}), this stream produced "
                            f"[{start}, {lo}); the streams differ — delete "
                            "the journal to start over"
                        )
                    continue
                yield _Unit(
                    i,
                    tuple((start, lo) if a == axis else (0, e)
                          for a, e in enumerate(shape)),
                    x_chunk.data, x_chunk.layout,
                    # U's column block for a k-split chunk's contracted
                    # indices: a strided view every kernel tier accepts.
                    u_arr[:, start:lo] if k_split else u_arr,
                    accum.data if k_split else None, k_split,
                    {"type": "chunk", "chunk": i, "lo": start, "hi": lo},
                )

        for unit, y in _run_units(units(), mode, j, planner, {},
                                  "stream_chunks", run.journal, state_path):
            if not k_split:
                yield StreamChunk(*unit.ranges[axis], y)
        if not n_chunks:
            raise ShapeError("ttm_stream received an empty stream of slices")
        if k_split and lo != u.shape[1]:
            raise ShapeError(
                f"stream covered {lo} contracted indices of "
                f"I_n={u.shape[1]}; partial result withheld (it would "
                "be silently wrong)"
            )
        run.final = {"type": "done", "chunks": n_chunks}
    if k_split:
        yield StreamChunk(0, j, accum)


def ttm_stream_collect(
    slices: Iterable,
    u: np.ndarray,
    mode: int,
    axis: int = 0,
    layout: Layout | str = Layout.ROW_MAJOR,
    planner: Planner | None = None,
) -> DenseTensor:
    """Consume :func:`ttm_stream` and assemble the full product."""
    layout = Layout.parse(layout)
    chunks = list(
        ttm_stream(slices, u, mode, axis=axis, layout=layout, planner=planner)
    )
    if axis == mode:
        return chunks[-1].data
    joined = np.concatenate([c.data.data for c in chunks], axis=axis)
    return DenseTensor(joined, chunks[0].data.layout)
