"""The in-place TTM executor: Algorithm 2, run as generated code.

``ttm_inplace`` is the single entry point that executes a plan.  It
validates the operands once, pre-flights the memory the call needs,
then runs the plan's compiled loop nest (:func:`repro.core.codegen
.compile_plan`) on copy-free views of the input and output storage,
writing straight through the output tensor.

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

from repro.core.codegen import compile_plan
from repro.core.partition import (
    available_modes_for_strategy,
    choose_batch_modes,
    component_modes_for_strategy,
    strategy_for,
)
from repro.core.plan import TtmPlan
from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters
from repro.resilience.fallback import fallback_tiers, recoverable
from repro.resilience.faults import active_faults, record_degradation
from repro.resilience.memory import guard_memory
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import DEFAULT_DTYPE, canonical_dtype, match_dtype
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


@functools.lru_cache(maxsize=256)
def _default_planner(shape, mode, j, layout, dtype=None) -> TtmPlan:
    """The standalone planner: :func:`default_plan`, memoized.

    The default ``planner`` of tiling, streaming and :func:`~repro.core
    .chain.plan_chain` when no :class:`~repro.core.intensli.InTensLi`
    supplies its own.  Pure in its (hashable) arguments, and a tiled run
    asks for the same few tile shapes on every call, so per-tile
    planning is a dict hit instead of a fresh partitioning.
    """
    return default_plan(shape, mode, j, layout, dtype=dtype)


def _check_inputs(x: DenseTensor, u: np.ndarray, plan: TtmPlan) -> np.ndarray:
    if not isinstance(x, DenseTensor):
        raise TypeError(
            f"x must be a DenseTensor, got {type(x).__name__}; wrap ndarrays "
            "so the storage layout is explicit"
        )
    data = x.data
    if data.dtype != plan.np_dtype:
        raise DtypeError(
            f"plan was built for dtype {plan.dtype}, but x is "
            f"{data.dtype.name}; re-plan for the tensor's dtype"
        )
    # Dtype policy: reject or preserve, never upcast.  A silent
    # ``asarray(u, dtype=float64)`` here used to upcast-and-copy float32
    # operands — the exact allocation cost this library exists to avoid.
    u = match_dtype(u, plan.np_dtype)
    if u.ndim != 2:
        raise ShapeError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
    if data.shape != plan.shape or x.layout is not plan.layout:
        raise PlanError(
            f"plan was built for shape {plan.shape} / {plan.layout.name}, "
            f"got {data.shape} / {x.layout.name}"
        )
    if u.shape != (plan.j, plan.i_n):
        raise ShapeError(
            f"U shape {u.shape} does not match (J={plan.j}, I_n={plan.i_n})"
        )
    return u


def _empty_out(plan: TtmPlan) -> DenseTensor:
    """Y for *plan*, uninitialized: geometry and dtype come from the plan."""
    data = np.empty(
        plan.out_shape, dtype=plan.np_dtype, order=plan.layout.numpy_order
    )
    return DenseTensor._wrap(data, plan.layout, plan.out_strides)


def _check_out(plan: TtmPlan, out) -> None:
    if not isinstance(out, DenseTensor):
        raise TypeError(f"out must be a DenseTensor, got {type(out).__name__}")
    if out.shape != plan.out_shape or out.layout is not plan.layout:
        raise PlanError(
            f"out has shape {out.shape} / {out.layout.name}, plan needs "
            f"{plan.out_shape} / {plan.layout.name}"
        )
    if out.data.dtype != plan.np_dtype:
        raise DtypeError(
            f"out has dtype {out.data.dtype.name}, plan needs {plan.dtype}; "
            "writing through a mismatched out would silently round every "
            "element"
        )


def _run_compiled(plan: TtmPlan, x: np.ndarray, u, y: np.ndarray) -> None:
    """One call of *plan*'s compiled code: checkpoint, span, counters."""
    fn = compile_plan(plan)
    counts = fn.counts
    faults = active_faults()
    if faults is not None:
        # The compiled body may be a bare np.matmul with no gemm-layer
        # checkpoint inside, so the whole call checks in at its dispatch.
        faults.check(
            "kernel-raise", kernel=plan.kernel,
            batched=counts.batched_calls > 0,
        )
    tracer = active_tracer()
    if tracer.enabled:
        m, k, n = plan.kernel_shape
        # Gemm-layer calls inside the body see this span as current and
        # open no second one.
        with tracer.span(
            "gemm-kernel", kernel=plan.kernel, dtype=plan.dtype,
            m=m, k=k, n=n, dispatches=counts.dispatches,
        ):
            fn(x, u, y)
    else:
        fn(x, u, y)
    counters = active_hot_counters()
    if counters is not None:
        # DispatchCounts' fields are hot-counter names.
        for name, n in zip(counts._fields, counts):
            counters.add(name, n)


def _execute(plan: TtmPlan, x: np.ndarray, u, y: np.ndarray) -> None:
    """Run *plan*, degrading the whole call one kernel tier per failure.

    A recoverable error reruns the call with the plan recompiled at the
    next tier of :func:`~repro.resilience.fallback.fallback_tiers`
    (``blas -> blocked -> reference``).  Overwrite mode rewrites every
    element of *y*, so nothing from a failed tier survives.
    """
    tiers = fallback_tiers(plan.kernel)
    for i, kernel in enumerate(tiers):
        tier_plan = plan if i == 0 else replace(plan, kernel=kernel)
        try:
            _run_compiled(tier_plan, x, u, y)
            return
        except Exception as exc:
            if not recoverable(exc):
                raise
            if i + 1 == len(tiers):
                raise KernelExecutionError(
                    f"every GEMM kernel tier failed ({' -> '.join(tiers)}); "
                    f"last error from {kernel!r}: {type(exc).__name__}: {exc}"
                ) from exc
            log.warning(
                "gemm kernel %r failed (%s: %s); degrading to %r",
                kernel, type(exc).__name__, exc, tiers[i + 1],
            )
            record_degradation(
                "kernel_fallbacks",
                degraded=True,
                degraded_from=kernel,
                degraded_to=tiers[i + 1],
                degraded_error=type(exc).__name__,
            )


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
    default plan is used.  With ``transpose_u=True`` the product is
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
        plan = default_plan(
            x.shape, mode, u_arr.shape[0], x.layout, dtype=x.data.dtype
        )
    return _run_plan(
        x, u, plan, out, accumulate=accumulate, check_finite=check_finite,
        allow_replan=allow_replan, guard=True,
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
    guard: bool,
) -> DenseTensor:
    """Validate, pre-flight, allocate and run *plan*: the executor's body.

    ``guard=False`` skips :func:`guard_memory`; only a caller that has
    already established :func:`~repro.resilience.memory.preflight_skips`
    for this very call (the :class:`~repro.core.intensli.InTensLi`
    facade) may pass it, because then the guard provably returns the
    plan unchanged without probing.
    """
    u = _check_inputs(x, u, plan)
    if out is not None:
        _check_out(plan, out)
    # Pre-flight: size the allocations before making them, so memory
    # pressure surfaces as a typed error (or a lower-degree replan)
    # instead of an OOM kill mid-write.  Accumulation computes into an
    # output-sized scratch first, so the guard prices that too.
    if guard:
        plan = guard_memory(
            plan, allocate_out=out is None or accumulate,
            allow_replan=allow_replan,
        )
    y = out if out is not None else _empty_out(plan)
    target = _empty_out(plan) if accumulate else y

    tracer = active_tracer()
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
            _execute(plan, x.data, u, target.data)
    else:
        _execute(plan, x.data, u, target.data)
    if accumulate:
        # Added once, after success: a failed tier never leaves partial
        # sums in *out*.
        np.add(y.data, target.data, out=y.data)
    if check_finite:
        check_finite_result(y.data, kernel=plan.kernel, context="ttm")
    return y
