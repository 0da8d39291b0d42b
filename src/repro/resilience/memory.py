"""Memory-pressure pre-flight guard: size the TTM before touching memory.

A TTM that dies in ``DenseTensor.empty`` or inside a kernel's packing
buffer leaves the caller with a ``MemoryError`` from the middle of the
hot path — and, if the output was preallocated, possibly a partially
written tensor.  The plan already knows every working set (the estimator
prices them to choose ``M_C``), so the executor can know *before the
first allocation* whether the call fits:

* the output tensor (when the caller did not preallocate it), plus
* one kernel working set per thread that can have a multiply in flight
  (operand views are free; kernel temporaries — packing buffers, BLAS
  workspace, accumulate scratch — are bounded by the kernel size).

When the footprint exceeds the memory the guard sees available it raises
a typed :class:`~repro.util.errors.ResourceError` up front — or, with
``allow_replan=True``, degrades to a lower-degree plan whose smaller
``M_C`` working set fits, counting a ``memory_replans`` degradation.

Availability comes from ``$REPRO_MEM_LIMIT`` (an explicit byte budget —
containers, tests), else ``MemAvailable`` in ``/proc/meminfo``, else the
guard stands down (None).  Small calls skip the probe entirely: below
:data:`PREFLIGHT_MIN_BYTES` a failure is implausible and the hot path
should not pay a file read per TTM.  :func:`preflight_skips` states that
condition once, for the tiling check, the guard, the executor and each
plan's warm entry (the last two pass the footprints their plan caches,
:attr:`~repro.core.plan.TtmPlan.compiled`), so a caller about to run
the tiling check and the guard can skip the pair when neither could act.

Budget read policy
------------------

The budget is **re-read at every call** by default: flipping
``$REPRO_MEM_LIMIT`` (or memory freeing up in ``/proc/meminfo``) takes
effect on the very next guard probe, tiling decision, or materialization
check.  Code that must make *several* related decisions against one
coherent number — the serving engine executing one signature group
of requests, or the tiling executor pre-flighting every tile before
writing the first byte of output — wraps the region in
:func:`pinned_budget`, which snapshots the budget once (thread-locally,
so concurrent serving workers don't see each other's pins) and serves
that snapshot to every ``available_bytes()`` call inside the region.
Armed ``alloc-fail`` faults still override a pin: determinism of the
fault harness beats snapshot coherence.
"""

from __future__ import annotations

import contextlib
import logging
import os
import threading

from repro.resilience import faults as _faults
from repro.resilience.faults import record_degradation
from repro.util.errors import ResourceError

log = logging.getLogger("repro.resilience")

_pin_state = threading.local()

#: Environment variable capping the bytes the guard believes available.
MEM_LIMIT_ENV = "REPRO_MEM_LIMIT"

#: :data:`MEM_LIMIT_ENV` as ``os.environ`` stores it.  ``MEM_LIMIT_KEY in
#: os.environ._data`` reads the same dict as ``MEM_LIMIT_ENV in
#: os.environ``, without the two ``KeyError``\ s that test raises and
#: catches when the variable is unset (~1 µs per warm TTM).
MEM_LIMIT_KEY = os.environ.encodekey(MEM_LIMIT_ENV)

#: Footprints below this skip the availability probe (no env cap, no
#: faults armed): probing /proc per tiny TTM would cost more than the
#: allocation it guards.
PREFLIGHT_MIN_BYTES = 64 << 20

#: Sentinel distinguishing "no pin installed" from a pinned None
#: (budget explicitly snapshotted as unknowable).
_UNPINNED = object()


@contextlib.contextmanager
def pinned_budget(budget: int | None = None):
    """Snapshot the memory budget for the duration of a region.

    Inside the ``with`` block every :func:`available_bytes` call on
    *this thread* returns the same number: the value probed on entry, or
    an explicit *budget* when given.  This is the documented escape from
    the default re-read-per-call policy for multi-step decisions that
    must agree with each other (serving batch admission + execution,
    tile pre-flight + execution).  Pins are thread-local and re-entrant
    (the innermost pin wins); armed ``alloc-fail`` faults still override.

    Yields the pinned value so callers can log or assert against it.
    """
    previous = getattr(_pin_state, "budget", _UNPINNED)
    if budget is None:
        # Probe once *before* installing the pin so nesting without an
        # explicit budget re-probes the outer pin, not the environment.
        budget = available_bytes()
    _pin_state.budget = budget
    try:
        yield budget
    finally:
        if previous is _UNPINNED:
            del _pin_state.budget
        else:
            _pin_state.budget = previous


def available_bytes() -> int | None:
    """Bytes the guard may plan against, or None when unknowable.

    An armed ``alloc-fail`` injection forces 0 — the deterministic way
    to exercise the pressure paths without actually exhausting a test
    machine.
    """
    faults = _faults._ACTIVE
    if faults is not None and faults.check("alloc-fail"):
        return 0
    pinned = getattr(_pin_state, "budget", _UNPINNED)
    if pinned is not _UNPINNED:
        return pinned
    override = os.environ.get(MEM_LIMIT_ENV)
    if override:
        try:
            return max(0, int(override))
        except ValueError:
            log.warning("ignoring non-integer %s=%r", MEM_LIMIT_ENV, override)
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def plan_footprint_bytes(plan, *, allocate_out: bool = True) -> int:
    """The bytes a plan's execution allocates, from geometry alone.

    Output storage (when the executor allocates it) plus one kernel
    working set per thread that can hold a multiply in flight.  Operand
    *views* cost nothing — that is the point of the in-place algorithm —
    so this is the complete allocation story, not an estimate of RSS.
    """
    out_bytes = plan.output_bytes if allocate_out else 0
    in_flight = max(plan.loop_threads, plan.kernel_threads)
    return out_bytes + plan.kernel_working_set_bytes * in_flight


def preflight_skips(footprint: int, x_inmem: bool = True) -> bool:
    """True when no pre-flight of a call can do anything but admit it.

    That is an in-memory input whose *footprint* (the call's
    :func:`plan_footprint_bytes`) is below :data:`PREFLIGHT_MIN_BYTES`,
    with no armed fault injector (its ``alloc-fail`` checkpoint lives in
    the probe) and no explicit ``$REPRO_MEM_LIMIT`` cap, both re-read at
    every call.  The tiling check and :func:`guard_memory` begin with
    this test and stand down without a probe when it holds, so a caller
    that gets True may skip both and provably run the same plan.
    Out-of-core inputs never skip: the tiling check probes them.
    """
    return (
        x_inmem
        and footprint < PREFLIGHT_MIN_BYTES
        and _faults._ACTIVE is None
        and MEM_LIMIT_KEY not in os.environ._data
    )


def guard_memory(plan, *, allocate_out: bool = True, allow_replan: bool = False):
    """Admit, degrade, or refuse a plan against available memory.

    Returns the plan to execute: the original when it fits (or when
    availability is unknowable), a lower-degree replacement when
    ``allow_replan`` and one fits, otherwise raises
    :class:`ResourceError` before anything was allocated.
    """
    need = plan_footprint_bytes(plan, allocate_out=allocate_out)
    if preflight_skips(need):
        return plan
    avail = available_bytes()
    if avail is None or need <= avail:
        return plan
    if allow_replan:
        replacement = _lower_degree_plan(plan, avail, allocate_out)
        if replacement is not None:
            log.warning(
                "memory pressure: plan needs ~%d bytes, %d available; "
                "degrading degree %d -> %d",
                need, avail, plan.degree, replacement.degree,
            )
            record_degradation(
                "memory_replans",
                memory_replan=True,
                replan_from_degree=plan.degree,
                replan_to_degree=replacement.degree,
            )
            return replacement
    raise ResourceError(
        f"TTM for shape {plan.shape} mode {plan.mode} J={plan.j} needs "
        f"~{need} bytes ({'output + ' if allocate_out else ''}kernel "
        f"working sets) but only {avail} appear available; free memory, "
        f"raise ${MEM_LIMIT_ENV}, or pass allow_replan=True to accept a "
        "lower-degree plan"
    )


def _lower_degree_plan(plan, avail: int, allocate_out: bool):
    """The highest-degree plan below *plan* whose footprint fits, if any.

    Rebuilt through the memoized :func:`repro.core.inttm.default_plan`
    (imported lazily — this module sits below the core layer), so a
    replan repeated under the same pressure reuses one plan and compiles
    its kernel once.  The kernel is reopened to ``auto``: a shorter
    component run can change stride legality, and ``auto`` re-routes per
    operand.
    """
    from repro.core.inttm import _default_planner

    for degree in range(plan.degree - 1, -1, -1):
        candidate = _default_planner(
            plan.shape,
            plan.mode,
            plan.j,
            plan.layout,
            loop_threads=plan.loop_threads,
            kernel_threads=plan.kernel_threads,
            kernel="auto",
            degree=degree,
            batched=bool(plan.batch_modes),
            dtype=plan.dtype,
        )
        if plan_footprint_bytes(candidate, allocate_out=allocate_out) <= avail:
            return candidate
    return None
