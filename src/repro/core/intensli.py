"""The INTENSLI facade: benchmark management, plan caching, execution.

``InTensLi`` ties the whole framework together the way figure 7 draws it:

* it owns (or builds) the **MM benchmark** — measured on this host, or a
  deterministic synthetic profile for a platform preset;
* for each new input signature it runs the **parameter estimator** and
  caches the resulting plan in its one :class:`~repro.autotune.PlanCache`
  (memory-only until :meth:`InTensLi.attach_plan_cache` swaps in a
  store-backed one);
* it executes plans as **generated code** (:mod:`repro.core.codegen`)
  through the single executor entry point
  :func:`repro.core.inttm.ttm_inplace`, or tile by tile when a plan's
  footprint exceeds the memory budget.

The top-level :func:`repro.ttm` wraps a module-wide default instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.analysis.roofline import CORE_I7_4770K, RooflinePlatform
from repro.core.chain import (
    ChainPlan,
    ScratchPool,
    _check_chain,
    _fused_chain,
    _plan_signature,
)
from repro.core.estimator import ParameterEstimator
from repro.core.inttm import _run_plan
from repro.core.plan import TtmPlan
from repro.core.threads import DEFAULT_PTH_BYTES
from repro.core.tiling import (
    TilingPlanner,
    execute_tiled,
    tiling_opportunity,
    ttm_stream as _ttm_stream,
)
from repro.gemm.bench import (
    GemmProfile,
    default_shape_grid,
    measure_profile,
    synthetic_profile,
)
from repro.obs import counters as _counters, tracer as _tracer
from repro.obs.tracer import active_tracer
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.dtypes import (
    _NATIVE_NAMES,
    DEFAULT_DTYPE,
    canonical_dtype,
    dtype_name,
    match_dtype,
)
from repro.util.errors import ResourceError, ShapeError
from repro.util.validation import check_mode, check_positive_int, check_shape

if TYPE_CHECKING:
    from repro.autotune.cache import PlanCache


class InTensLi:
    """Input-adaptive, in-place TTM with plan caching.

    Every plan decision — estimated, tuned or loaded — lives in one
    :class:`~repro.autotune.PlanCache`, read through :attr:`plan_cache`.

    Parameters
    ----------
    profile:
        A pre-built GEMM benchmark.  When None, one is created according
        to *benchmark*: ``"synthetic"`` (default; the roofline model of
        *platform* — fast and deterministic) or ``"measure"`` (time real
        kernels on this host; slower, once per process).
    platform:
        Roofline preset used for synthetic profiles.
    max_threads:
        The thread budget for ``P_L``/``P_C``.
    """

    def __init__(
        self,
        profile: GemmProfile | None = None,
        platform: RooflinePlatform = CORE_I7_4770K,
        max_threads: int = 1,
        benchmark: str = "synthetic",
        benchmark_j: Sequence[int] = (16,),
        pth_bytes: int = DEFAULT_PTH_BYTES,
        kappa: float = 0.8,
    ) -> None:
        check_positive_int(max_threads, "max_threads")
        if profile is None:
            grid = default_shape_grid(m_values=tuple(benchmark_j))
            threads = (1, max_threads) if max_threads > 1 else (1,)
            if benchmark == "synthetic":
                profile = synthetic_profile(grid, platform, threads=threads)
            elif benchmark == "calibrate":
                # Measure this host's roofline once (a GEMM + a STREAM
                # triad), then evaluate the model — far cheaper than the
                # full shape benchmark, host-accurate unlike a preset.
                from repro.perf.calibrate import host_platform

                platform = host_platform()
                profile = synthetic_profile(grid, platform, threads=threads)
            elif benchmark == "measure":
                profile = measure_profile(grid, threads=threads)
            else:
                raise ShapeError(
                    f"benchmark must be 'synthetic', 'calibrate', or "
                    f"'measure', got {benchmark!r}"
                )
        self.profile = profile
        self.platform = platform
        self.max_threads = max_threads
        self.estimator = ParameterEstimator(
            profile=profile,
            max_threads=max_threads,
            pth_bytes=pth_bytes,
            kappa=kappa,
        )
        # Imported here: repro.autotune imports this module.
        from repro.autotune.cache import PlanCache

        self._cache = PlanCache.in_memory()
        self._chain_cache: dict[tuple, ChainPlan] = {}
        self._chain_generation = self._cache.generation
        self._chain_pool = ScratchPool()

    # -- planning -------------------------------------------------------------

    @property
    def plan_cache(self) -> PlanCache:
        """The one cache every plan of this facade is read from and kept in."""
        return self._cache

    def attach_plan_cache(self, cache: PlanCache) -> None:
        """Plan through *cache* from now on, in place of the current one.

        Pinned entries (``source`` ``"tuned"`` or ``"measured"``, from
        :meth:`tune`, :meth:`load_plan_cache` or refinement) carry over
        into *cache*, replacing its ``"estimator"`` entries for the same
        keys; its own pinned entries are kept.  Use a store-backed
        :class:`~repro.autotune.PlanCache` to keep decisions across
        processes and share them with an
        :class:`~repro.autotune.AutotuneSession` wrapping this instance.
        """
        for key, entry in self._cache.items():
            if entry.source == "estimator":
                continue
            current = cache.peek(key)
            if current is None or current.source == "estimator":
                cache.put(key, entry.plan, entry.source, entry.seconds)
        self._cache = cache
        self._chain_generation = None

    def plan(
        self,
        shape: Sequence[int],
        mode: int,
        j: int,
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> TtmPlan:
        """The (cached) plan for an input signature (geometry + dtype).

        *mode* and *j* are validated on every call, cache hit or not, so
        a warm cache answers bad input with the same typed error as the
        estimator (``True`` and ``1.0`` hash like ``1``).
        """
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        shape_t = check_shape(shape)
        mode = check_mode(mode, len(shape_t))
        check_positive_int(j, "j")
        tracer = _tracer._ACTIVE
        if not tracer.enabled:
            return self._plan_impl(shape_t, mode, j, layout, dt)
        with tracer.span(
            "plan",
            shape=list(shape_t),
            mode=mode,
            j=j,
            layout=layout.name,
            dtype=dt.name,
            threads=self.max_threads,
        ) as span:
            plan = self._plan_impl(shape_t, mode, j, layout, dt)
            span.set(
                strategy=plan.strategy.value,
                degree=plan.degree,
                batch_modes=list(plan.batch_modes),
                loop_threads=plan.loop_threads,
                kernel_threads=plan.kernel_threads,
                kernel=plan.kernel,
            )
        return plan

    def _plan_impl(
        self,
        shape_t: tuple[int, ...],
        mode: int,
        j: int,
        layout: Layout,
        dt: np.dtype,
    ) -> TtmPlan:
        key = (shape_t, mode, j, layout, self.max_threads, _NATIVE_NAMES[dt])
        tracer = _tracer._ACTIVE
        if tracer.enabled:
            with tracer.span("cache-lookup") as span:
                plan = self._cache.lookup(*key)
                span.set(hit=plan is not None)
        else:
            plan = self._cache.lookup(*key)
        if plan is None:
            self._cache.count("misses")
            plan = self.estimator.estimate(shape_t, mode, j, layout, dtype=dt)
            self._cache.keep(plan, self.max_threads)
        else:
            # A hit counts in HotCounters only (not the cache's stats).
            counters = _counters._HOT_COUNTERS
            if counters is not None:
                counters.add("plan_cache_hits")
        return plan

    def _cached(self) -> list[TtmPlan]:
        """Every plan :meth:`plan` answers from without estimating."""
        return [
            entry.plan
            for key, entry in self._cache.items()
            if key.threads == self.max_threads
        ]

    @property
    def cached_plans(self) -> int:
        return len(self._cached())

    @property
    def cached_chain_plans(self) -> int:
        return len(self._chain_plans())

    @property
    def machine_balance(self) -> float:
        """Flops per byte at this platform's roofline ridge point.

        The chain planner weighs a candidate order's intermediate bytes
        against its flops at exactly this ratio, so an order that saves
        traffic wins whenever the chain is bandwidth-bound on this
        machine.
        """
        bandwidth = max(self.platform.bandwidth_gbs, 1e-9)
        return max(self.platform.peak_gflops / bandwidth, 1e-9)

    def plan_chain(
        self,
        shape: Sequence[int],
        steps: Sequence[tuple[int, int]],
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
        order: "str | Sequence[int]" = "auto",
    ) -> ChainPlan:
        """The (cached) whole-chain plan for a chain signature.

        *steps* is the ``(mode, J)`` sequence.  The chain plan is cached
        under a chain-qualified key — the full step signature, not any
        single product — while each per-step :class:`TtmPlan` flows
        through :meth:`plan` and therefore through :attr:`plan_cache`
        under its own per-step signature, so chains that
        share steps share tuned decisions.  Cached chain plans are
        dropped whenever :attr:`plan_cache` changes an answer (a pin, a
        promotion, a clear or reload) or is swapped by
        :meth:`attach_plan_cache`, so no chain runs a replaced step plan.
        """
        shape_t = check_shape(shape)
        return self._cached_chain_plan(
            shape_t,
            _check_chain(shape_t, steps),
            Layout.parse(layout),
            DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype),
            order,
        )

    def _chain_plans(self) -> dict[tuple, ChainPlan]:
        """The chain-plan memo, emptied first if the plan cache moved on."""
        generation = self._cache.generation
        if generation != self._chain_generation:
            self._chain_cache.clear()
            self._chain_generation = generation
        return self._chain_cache

    def _cached_chain_plan(
        self,
        shape_t: tuple[int, ...],
        sig: tuple[tuple[int, int], ...],
        layout: Layout,
        dt: np.dtype,
        order: "str | Sequence[int]",
    ) -> ChainPlan:
        """:meth:`plan_chain` for an already validated signature."""
        order_key = order if isinstance(order, str) else tuple(order)
        key = (shape_t, sig, layout, dtype_name(dt), self.max_threads, order_key)
        chains = self._chain_plans()
        plan = chains.get(key)
        tracer = active_tracer()
        if plan is not None and not tracer.enabled:
            return plan
        with tracer.span(
            "chain-plan",
            shape=list(shape_t),
            steps=[[m, j] for m, j in sig],
            layout=layout.name,
            dtype=dtype_name(dt),
            threads=self.max_threads,
        ) as span:
            hit = plan is not None
            if not hit:
                plan = chains[key] = _plan_signature(
                    shape_t, sig, layout, dt, order,
                    planner=self.plan,
                    flops_per_byte=self.machine_balance,
                )
            if span is not None:
                span.set(
                    cache_hit=hit,
                    order=list(plan.order),
                    flops=plan.total_flops,
                    peak_intermediate_bytes=plan.peak_intermediate_bytes,
                    scratch_slots=len(plan.scratch_elements),
                )
        return plan

    def ttm_chain(
        self,
        x: DenseTensor,
        steps,
        out: DenseTensor | None = None,
        order: "str | Sequence[int]" = "auto",
        transpose: bool = False,
    ) -> DenseTensor:
        """Execute a multi-TTM chain fused: plan once, reuse every buffer.

        *steps* are ``(mode, matrix)`` pairs or :class:`ChainStep`
        objects; with ``transpose=True`` every matrix is ``(I_n, J)``
        and applied transposed (the Tucker projection's convention),
        served by transpose views — no copies.  The steps are checked
        once, before the first product, exactly as :func:`~repro.core
        .chain.ttm_chain` checks them.  Intermediates ping-pong
        through this instance's scratch pool (reused across calls, so
        HOOI sweeps converge to zero allocations); the final product is
        written into *out* when given.  Each step runs through
        :meth:`execute`, so an over-budget step is tiled.
        """
        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        return _fused_chain(
            x, steps, order, out, self._chain_pool,
            plan_signature=self._cached_chain_plan, execute=self.execute,
            transpose=transpose,
        )

    def release_scratch(self) -> int:
        """Drop the chain scratch buffers; returns the bytes freed."""
        return self._chain_pool.release()

    def __call__(self, x, u, mode, **kwargs):
        """Alias of :meth:`ttm` so an instance is itself a TTM backend."""
        return self.ttm(x, u, mode, **kwargs)

    def tune(
        self,
        x: DenseTensor,
        u: np.ndarray,
        mode: int,
        kernels: Sequence[str] = ("blas",),
        min_seconds: float = 0.02,
    ) -> TtmPlan:
        """Exhaustively tune this input on real data and pin the winner.

        Runs the figure-12 sweep (:class:`~repro.core.tuner
        .ExhaustiveTuner`) over every legal configuration, stores the
        measured best in the plan cache (overriding the estimator for
        this signature from now on), and returns it.  Use for hot
        signatures where the one-off sweep cost is worth paying; the
        pinned result survives ``save_plan_cache``.
        """
        from repro.core.tuner import ExhaustiveTuner

        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        u = match_dtype(u, x.data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D (J x I_n), got {u.ndim}-D")
        tuner = ExhaustiveTuner(min_seconds=min_seconds)
        result = tuner.sweep(
            x, u, mode, max_threads=self.max_threads, kernels=kernels
        )
        best = result.best_plan
        self._cache.keep(best, self.max_threads, source="tuned")
        return best

    def save_plan_cache(self, path: str) -> int:
        """Persist every cached plan as JSON; returns the count saved."""
        from repro.core.serialize import save_plans

        plans = self._cached()
        save_plans(plans, path)
        return len(plans)

    def load_plan_cache(self, path: str) -> int:
        """Pre-populate the plan cache from JSON; returns the count loaded.

        Loaded plans take precedence over estimation for their inputs —
        the offline-autotuning deployment mode.  They land in
        :attr:`plan_cache` marked ``source="tuned"``, as :meth:`tune`
        marks its winners, so they survive :meth:`attach_plan_cache`.
        """
        from repro.core.serialize import load_plans

        plans = load_plans(path)
        for plan in plans:
            self._cache.keep(plan, self.max_threads, source="tuned")
        return len(plans)

    # -- execution ------------------------------------------------------------

    def ttm(
        self,
        x: DenseTensor,
        u: np.ndarray,
        mode: int,
        out: DenseTensor | None = None,
        transpose_u: bool = False,
        check_finite: bool = False,
        allow_replan: bool = False,
    ) -> DenseTensor:
        """Compute ``Y = X x_mode U`` with the input-adaptive plan.

        ``transpose_u=True`` computes ``X x_mode U^T`` for *u* of shape
        ``(I_n, J)`` via a transpose view (Tensor Toolbox 't' flag).
        ``check_finite=True`` validates the result for NaN/Inf after
        execution and raises :class:`~repro.util.errors.NumericError`
        naming the kernel when any appear.  ``allow_replan=True`` lets
        the memory pre-flight guard swap in a lower-degree plan (smaller
        kernel working set) instead of raising
        :class:`~repro.util.errors.ResourceError` under memory pressure.
        """
        if (
            out is None and not (transpose_u or check_finite)
            and type(x) is DenseTensor and type(u) is np.ndarray
            and u.ndim == 2 and type(mode) is int
        ):
            # The warm entry: the plan-cache key straight from the tensor,
            # then the plan's checked call, which declines whenever the
            # code below could do more than run the kernel.  A hit is
            # counted by the code below, which runs whenever counters are.
            data = x._data
            plan = self._cache.lookup(
                data.shape, mode, u.shape[0], x._layout, self.max_threads,
                _NATIVE_NAMES.get(data.dtype),
            )
            if plan is not None:
                y = plan.compiled.call(x, u)
                if y is not None:
                    return y
        if not isinstance(x, DenseTensor):
            x = DenseTensor(np.asarray(x))
        data = x.data
        u = match_dtype(u, data.dtype)
        if u.ndim != 2:
            raise ShapeError(f"U must be 2-D, got {u.ndim}-D")
        if transpose_u:
            u = u.T
        with active_tracer().span(
            "ttm",
            shape=list(data.shape),
            mode=mode,
            j=int(u.shape[0]),
            layout=x.layout.name,
            dtype=dtype_name(data.dtype),
        ):
            plan = self.plan(
                data.shape, mode, u.shape[0], x.layout, dtype=data.dtype
            )
            return _run_plan(
                x, u, plan, out, check_finite=check_finite,
                allow_replan=allow_replan, reroute=self._maybe_execute_tiled,
            )

    def execute(
        self,
        plan: TtmPlan,
        x: DenseTensor,
        u: np.ndarray,
        out: DenseTensor | None = None,
        check_finite: bool = False,
        allow_replan: bool = False,
    ) -> DenseTensor:
        """Run a specific plan (bypassing estimation) on real data.

        When the plan's footprint exceeds the memory budget — the normal
        case for memmap-backed tensors under ``$REPRO_MEM_LIMIT`` — the
        call transparently reroutes through the tiling planner
        (:mod:`repro.core.tiling`) and executes tile by tile; otherwise
        it is exactly :func:`~repro.core.inttm.ttm_inplace`.  Callers
        see the same output tensor, and the same typed errors, either
        way.

        The call is pre-flighted once, by the executor's body
        (:func:`~repro.core.inttm._run_plan`): when
        :func:`~repro.resilience.memory.preflight_skips` holds (a small
        in-memory call, no armed faults, no ``$REPRO_MEM_LIMIT``), the
        tiling check and the memory guard could not act and both are
        skipped; otherwise both run.  Without ``check_finite`` the
        plan's checked warm entry (:attr:`~repro.core.plan.CompiledPlan
        .call`) gets the call first.
        """
        return _run_plan(
            x, u, plan, out, check_finite=check_finite,
            allow_replan=allow_replan, reroute=self._maybe_execute_tiled,
        )

    def _maybe_execute_tiled(
        self,
        plan: TtmPlan,
        x: DenseTensor,
        u,
        out: DenseTensor | None,
        check_finite: bool,
    ) -> DenseTensor | None:
        """Reroute through tiling when the plan exceeds the budget.

        Returns None on the fast path (small in-memory call, budget
        unknowable, or the footprint fits) and when tiling cannot help
        (no splittable mode, budget below any kernel working set) — in
        the latter case the classic guard downstream still gets to
        replan or refuse, preserving the pre-tiling contract.
        """
        if not isinstance(x, DenseTensor) or x.shape != plan.shape:
            return None
        budget = tiling_opportunity(
            plan, x_inmem=x.is_inmem, out_given=out is not None
        )
        if budget is None:
            return None
        try:
            tiling = TilingPlanner(self.plan).plan(
                plan, budget=budget, out_preallocated=out is not None
            )
        except ResourceError:
            return None
        if not tiling.tiled:
            return None
        return execute_tiled(
            x, match_dtype(u, plan.np_dtype), tiling, out=out,
            planner=self.plan, check_finite=check_finite,
        )

    def ttm_stream(
        self,
        slices,
        u,
        mode: int,
        axis: int = 0,
        layout: Layout | str = Layout.ROW_MAJOR,
    ):
        """TTM over incrementally produced slices (see
        :func:`repro.core.tiling.ttm_stream`), planned by this facade.

        Chunk plans flow through :meth:`plan` and therefore through the
        estimator and :attr:`plan_cache` — a stream of
        equal-shaped chunks plans exactly once.
        """
        return _ttm_stream(
            slices, u, mode, axis=axis, layout=layout, planner=self.plan
        )


_DEFAULT: InTensLi | None = None


def default_intensli() -> InTensLi:
    """The lazily constructed module-wide instance behind :func:`repro.ttm`."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = InTensLi()
    return _DEFAULT


def ttm(
    x: DenseTensor,
    u: np.ndarray,
    mode: int,
    out: DenseTensor | None = None,
    check_finite: bool = False,
    allow_replan: bool = False,
) -> DenseTensor:
    """Input-adaptive in-place TTM using the default :class:`InTensLi`."""
    lib = _DEFAULT if _DEFAULT is not None else default_intensli()
    return lib.ttm(
        x, u, mode, out=out,
        check_finite=check_finite, allow_replan=allow_replan,
    )
