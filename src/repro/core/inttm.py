"""The in-place TTM executor: Algorithm 2, run as generated code.

One body, ``_run_plan``, executes every plan: ``ttm_inplace`` and the
:class:`~repro.core.intensli.InTensLi` facade both call it.  It
pre-flights the memory the call needs, validates the operands once,
then calls the plan's compiled loop nest (:attr:`TtmPlan.compiled`, from
:func:`repro.core.codegen.compile_plan`) on copy-free views of the input
and output storage, writing straight through the output tensor.  Its
callers first try the plan's checked warm entry
(:attr:`~repro.core.plan.CompiledPlan.call`, generated with the kernel),
which runs the kernel only when ``_run_plan`` would do nothing else.

Kernel failures degrade the whole call, not one loop index: a
recoverable error reruns the call with the plan recompiled one kernel
tier down (``blas -> blocked -> reference``, see
:mod:`repro.resilience.fallback`), and
:class:`~repro.util.errors.KernelExecutionError` is raised only after
the last tier.  With ``accumulate=True`` the product lands in one
output-sized scratch and is added into ``out`` once, after success.

Total extra memory outside accumulation: nothing beyond the output.
This is what "in-place" means in the paper: the conventional
implementation's tensor-sized matricization buffers simply do not exist.
"""

from __future__ import annotations

import functools
import logging
from dataclasses import replace

import numpy as np

from repro.core.partition import (
    available_modes_for_strategy,
    choose_batch_modes,
    component_modes_for_strategy,
    strategy_for,
)
from repro.core.plan import TtmPlan
from repro.obs import counters as _counters, tracer as _tracer
from repro.resilience import faults as _faults
from repro.resilience.fallback import fallback_tiers, recoverable
from repro.resilience.faults import record_degradation
from repro.resilience.memory import guard_memory, preflight_skips
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import (
    _NATIVE_NAMES,
    DEFAULT_DTYPE,
    canonical_dtype,
    match_dtype,
)
from repro.util.errors import (
    DtypeError,
    KernelExecutionError,
    PlanError,
    ShapeError,
)
from repro.util.validation import (
    check_finite_result,
    check_mode,
    check_positive_int,
    check_shape,
)

log = logging.getLogger("repro.core")


def default_plan(
    shape,
    mode: int,
    j: int,
    layout,
    loop_threads: int = 1,
    kernel_threads: int = 1,
    kernel: str = "auto",
    degree: int | None = None,
    batched: bool = True,
    dtype=None,
) -> TtmPlan:
    """The plan for one input at *degree*: the one way to build a TtmPlan.

    The estimator (threshold plan and refine candidates), the exhaustive
    tuner and the memory guard's lower-degree replans all build their
    plans here; only :func:`repro.core.serialize.plan_from_dict` makes
    one elsewhere.  *shape* goes through :func:`check_shape` and *dtype*
    through :func:`canonical_dtype`.  ``M_C`` is the strategy's run of
    *degree* modes at the leading dimension (maximal when None).  The
    loop modes nest storage-monotone — increasing index order for
    row-major, decreasing for column-major — and with ``batched=True``
    (the default) the maximal stackable suffix of that nest is batched;
    ``batched=False`` pins the classic per-iteration loop.
    """
    shape_t = check_shape(shape)
    order = len(shape_t)
    mode = check_mode(mode, order)
    check_positive_int(j, "j")
    layout = Layout.parse(layout)
    dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
    strategy = strategy_for(order, mode, layout)
    if degree is None:
        degree = len(available_modes_for_strategy(order, mode, strategy))
    comp = component_modes_for_strategy(order, mode, strategy, degree)
    loops = [m for m in range(order) if m != mode and m not in comp]
    if layout is Layout.COL_MAJOR:
        loops.reverse()
    loops = tuple(loops)
    batch = (
        choose_batch_modes(shape_t, layout, mode, j, loops) if batched else ()
    )
    return TtmPlan(
        shape=shape_t,
        mode=mode,
        j=j,
        layout=layout,
        strategy=strategy,
        component_modes=comp,
        loop_modes=loops,
        loop_threads=loop_threads,
        kernel_threads=kernel_threads,
        kernel=kernel,
        batch_modes=batch,
        dtype=dt.name,
    )


#: :func:`default_plan`, memoized: the planner of every call without an
#: :class:`~repro.core.intensli.InTensLi` (``ttm_inplace`` given a mode,
#: tiling, streams, chains, memory replans).  A repeat gets the same plan
#: and so its compiled kernel.  Callers pass *dtype* by name; ``typed``
#: keys ``True`` apart from ``1``, so :func:`default_plan` rejects it warm.
_default_planner = functools.lru_cache(maxsize=256, typed=True)(default_plan)


def _check_out(plan: TtmPlan, out) -> None:
    if not isinstance(out, DenseTensor):
        raise TypeError(f"out must be a DenseTensor, got {type(out).__name__}")
    if out._data.shape != plan.out_shape or out._layout is not plan.layout:
        raise PlanError(
            f"out has shape {out.shape} / {out.layout.name}, plan needs "
            f"{plan.out_shape} / {plan.layout.name}"
        )
    if out._data.dtype != plan.np_dtype:
        raise DtypeError(
            f"out has dtype {out.data.dtype.name}, plan needs {plan.dtype}; "
            "writing through a mismatched out would silently round every "
            "element"
        )


def _call_kernel(plan: TtmPlan, x: np.ndarray, u, y: np.ndarray, faults,
                 tracer) -> None:
    """One call of *plan*'s kernel under its fault checkpoint and span."""
    compiled = plan.compiled
    if faults is not None:
        # The compiled body may be a bare np.matmul with no gemm-layer
        # checkpoint inside, so the whole call checks in at its dispatch.
        faults.check(
            "kernel-raise", kernel=plan.kernel,
            batched=compiled.counts.batched_calls > 0,
        )
    if tracer.enabled:
        m, k, n = plan.kernel_shape
        # Gemm-layer calls inside the body see this span as current and
        # open no second one.
        with tracer.span(
            "gemm-kernel", kernel=plan.kernel, dtype=plan.dtype,
            m=m, k=k, n=n, dispatches=compiled.counts.dispatches,
        ):
            compiled.fn(x, u, y)
    else:
        compiled.fn(x, u, y)


def _run_tiers(plan: TtmPlan, x: np.ndarray, u, y: np.ndarray, faults,
               tracer) -> TtmPlan:
    """:func:`_call_kernel`, then :func:`_degrade` if it raises."""
    try:
        _call_kernel(plan, x, u, y, faults, tracer)
        return plan
    except Exception as exc:
        return _degrade(plan, x, u, y, exc, faults, tracer)


def _degrade(plan: TtmPlan, x: np.ndarray, u, y: np.ndarray,
             exc: Exception, faults, tracer) -> TtmPlan:
    """Rerun the call one kernel tier down per recoverable failure.

    Entered only after *plan*'s own kernel raised *exc*; returns the plan
    of the tier that completed.  The tiers are
    :func:`~repro.resilience.fallback.fallback_tiers` (``blas -> blocked
    -> reference``), each *plan* recompiled at that kernel.  A
    non-recoverable error propagates unchanged, and a failure of the
    last tier raises :class:`~repro.util.errors.KernelExecutionError`.
    Overwrite mode rewrites every element of *y*, so nothing from a
    failed tier survives.  Each tier's plan is a fresh instance, so a
    degraded call compiles every tier it reaches once; this is the fault
    path, and nothing outlives the call.
    """
    tiers = fallback_tiers(plan.kernel)
    for kernel, lower in zip(tiers, tiers[1:]):
        if not recoverable(exc):
            raise exc
        log.warning(
            "gemm kernel %r failed (%s: %s); degrading to %r",
            kernel, type(exc).__name__, exc, lower,
        )
        record_degradation(
            "kernel_fallbacks",
            degraded=True,
            degraded_from=kernel,
            degraded_to=lower,
            degraded_error=type(exc).__name__,
        )
        tier_plan = replace(plan, kernel=lower)
        try:
            _call_kernel(tier_plan, x, u, y, faults, tracer)
            return tier_plan
        except Exception as err:
            exc = err
    if not recoverable(exc):
        raise exc
    raise KernelExecutionError(
        f"every GEMM kernel tier failed ({' -> '.join(tiers)}); "
        f"last error from {tiers[-1]!r}: {type(exc).__name__}: {exc}"
    ) from exc


def ttm_inplace(
    x: DenseTensor,
    u: np.ndarray,
    mode: int | None = None,
    plan: TtmPlan | None = None,
    out: DenseTensor | None = None,
    transpose_u: bool = False,
    accumulate: bool = False,
    check_finite: bool = False,
    allow_replan: bool = False,
) -> DenseTensor:
    """Compute ``Y = X x_mode U`` in place of a preallocated output.

    Either *plan* or *mode* must be given; with only *mode*, the maximal
    default plan is used (memoized: a repeated signature reuses one plan
    and its compiled kernel).  With ``transpose_u=True`` the product is
    ``X x_mode U^T`` for *u* of shape ``(I_n, J)`` — the Tensor Toolbox's
    ``ttm(X, A, n, 't')`` convention, served by a transpose *view* (no
    copy), which is what Tucker's factor projections want.  With
    ``accumulate=True`` (requires *out*) the product is *added* into the
    output — GEMM's beta=1, useful for summing partial contractions.
    With ``check_finite=True`` the result is validated for NaN/Inf after
    execution (:class:`~repro.util.errors.NumericError` on failure).
    ``allow_replan=True`` lets the memory pre-flight guard substitute a
    lower-degree plan instead of raising
    :class:`~repro.util.errors.ResourceError` under memory pressure.
    Returns the output tensor (newly allocated when *out* is None).
    """
    if accumulate and out is None:
        raise PlanError("accumulate=True requires a preallocated out")
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    if transpose_u:
        u_arr = np.asarray(u)
        if u_arr.ndim != 2:
            raise ShapeError(f"U must be 2-D (I_n x J), got {u_arr.ndim}-D")
        u = u_arr.T  # a view; BLAS-legal (unit stride in one dimension)
    if plan is None:
        if mode is None:
            raise PlanError("ttm_inplace needs a plan or a mode")
        u_arr = np.asarray(u)
        if u_arr.ndim != 2:
            raise ShapeError(f"U must be 2-D (J x I_n), got {u_arr.ndim}-D")
        plan = _default_planner(
            x._data.shape, mode, u_arr.shape[0], x._layout,
            dtype=_NATIVE_NAMES[x._data.dtype],
        )
    if not (accumulate or check_finite):
        y = plan.compiled.call(x, u, out)
        if y is not None:
            return y
    return _run_plan(
        x, u, plan, out, accumulate=accumulate, check_finite=check_finite,
        allow_replan=allow_replan,
    )


def _run_plan(
    x: DenseTensor,
    u,
    plan: TtmPlan,
    out: DenseTensor | None,
    *,
    accumulate: bool = False,
    check_finite: bool = False,
    allow_replan: bool = False,
    reroute=None,
) -> DenseTensor:
    """Pre-flight, validate, allocate and run *plan*: the executor's body.

    Every entry point runs here: :meth:`~repro.core.intensli.InTensLi
    .ttm`, :meth:`~repro.core.intensli.InTensLi.execute`,
    :func:`ttm_inplace` and fused-chain steps, each after the plan's
    checked warm entry (:attr:`~repro.core.plan.CompiledPlan.call`)
    declined the call or could not take it (``accumulate``,
    ``check_finite``).  What the plan fixes is read from
    :attr:`TtmPlan.compiled`; what a call can change is checked on every
    call.

    The pre-flight is the test :func:`~repro.resilience.memory
    .preflight_skips` (an in-memory input, a footprint below
    :data:`~repro.resilience.memory.PREFLIGHT_MIN_BYTES`, no armed fault
    injector and no ``$REPRO_MEM_LIMIT``).  When it holds, *reroute* and
    :func:`guard_memory` would both admit the plan unchanged without a
    probe, so both are skipped.
    Otherwise *reroute* (the facade's tiling check, called as
    ``reroute(plan, x, u, out, check_finite)``) gets the call first and
    its non-None result is returned as is, then the guard runs after
    validation.
    """
    compiled = plan.compiled
    allocate_out = out is None or accumulate
    skip = preflight_skips(
        compiled.footprint if allocate_out else compiled.footprint_in_place,
        isinstance(x, DenseTensor) and x._inmem,
    )
    if not skip and reroute is not None:
        y = reroute(plan, x, u, out, check_finite)
        if y is not None:
            return y

    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    data = x._data
    dtype = plan.np_dtype
    if data.dtype != dtype:
        raise DtypeError(
            f"plan was built for dtype {plan.dtype}, but x is "
            f"{data.dtype.name}; re-plan for the tensor's dtype"
        )
    # Dtype policy: reject or preserve, never upcast.  A silent
    # ``asarray(u, dtype=float64)`` here used to upcast-and-copy float32
    # operands — the exact allocation cost this library exists to avoid.
    if type(u) is not np.ndarray or u.dtype != dtype:
        u = match_dtype(u, dtype)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
    if data.shape != plan.shape or x._layout is not plan.layout:
        raise PlanError(
            f"plan was built for shape {plan.shape} / {plan.layout.name}, "
            f"got {data.shape} / {x.layout.name}"
        )
    if u.shape != (plan.j, plan.i_n):
        raise ShapeError(
            f"U shape {u.shape} does not match (J={plan.j}, I_n={plan.i_n})"
        )
    if out is not None:
        _check_out(plan, out)
    if not skip:
        # Size the allocations before making them, so memory pressure
        # surfaces as a typed error (or a lower-degree replan) instead of
        # an OOM kill mid-write.  Accumulation computes into an
        # output-sized scratch first, so the guard prices that too.
        plan = guard_memory(
            plan, allocate_out=allocate_out, allow_replan=allow_replan
        )
        compiled = plan.compiled
    target = np.empty(*compiled.empty_args) if allocate_out else out._data

    faults = _faults._ACTIVE
    tracer = _tracer._ACTIVE
    if tracer.enabled:
        with tracer.span(
            "execute",
            shape=list(plan.shape),
            mode=plan.mode,
            j=plan.j,
            layout=plan.layout.name,
            degree=plan.degree,
            batch_modes=list(plan.batch_modes),
            kernel=plan.kernel,
            dtype=plan.dtype,
            flops=plan.total_flops,
        ):
            ran = _run_tiers(plan, data, u, target, faults, tracer)
    else:
        ran = _run_tiers(plan, data, u, target, faults, tracer)
    counters = _counters._HOT_COUNTERS
    if counters is not None:
        # DispatchCounts' fields are hot-counter names.
        counts = ran.compiled.counts
        for name, n in zip(counts._fields, counts):
            counters.add(name, n)

    if out is None:
        y = DenseTensor._wrap(
            target, plan.layout, compiled.out_strides, fresh=True
        )
    else:
        y = out
        if accumulate:
            # Added once, after success: a failed tier never leaves
            # partial sums in *out*.
            np.add(out._data, target, out=out._data)
    if check_finite:
        check_finite_result(y.data, kernel=plan.kernel, context="ttm")
    return y
