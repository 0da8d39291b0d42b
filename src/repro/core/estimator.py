"""The parameter estimator: inputs -> plan (figure 7's middle stage).

Given the input description (tensor geometry, layout, mode, J) plus the
environment (a GEMM shape benchmark, a thread budget), the estimator
fixes every free parameter of Algorithm 2:

1. strategy  — by layout (forward for row-major, backward for
   column-major), keeping the inner kernel unit-strided;
2. degree / ``M_C`` — via the MSTH/MLTH working-set window derived from
   the benchmark (figure 8's procedure), cross-checked by the throughput
   model; a leading-mode product (the contracted mode is the unit-stride
   mode) takes degree N-1 outright, one contiguous GEMM;
3. ``M_L`` and the loop order — the remaining modes, nested
   storage-monotone (increasing index order for row-major, decreasing
   for column-major) so consecutive iterations touch nearby storage.
   :func:`~repro.core.inttm.default_plan` enforces this order, and every
   plan here — the threshold plan and each refine candidate — is built
   through it;
4. ``P_L`` / ``P_C`` — by the PTH rule;
5. the kernel — ``blas`` when BLAS exposes the element type, ``blocked``
   otherwise (the natural strategy's views are always BLAS-legal).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.partition import (
    PAPER_THRESHOLDS,
    Thresholds,
    available_modes_for_strategy,
    choose_degree,
    component_modes_for_strategy,
    derive_thresholds,
    kernel_working_set_bytes,
    strategy_for,
)
from repro.core.inttm import default_plan
from repro.core.plan import TtmPlan
from repro.core.threads import DEFAULT_PTH_BYTES, allocate_threads
from repro.gemm.bench import GemmProfile
from repro.gemm.interface import kernel_supports
from repro.obs.tracer import active_tracer
from repro.perf.profiler import active_hot_counters
from repro.tensor.layout import Layout, leading_mode
from repro.util.dtypes import DEFAULT_DTYPE, canonical_dtype
from repro.util.validation import (
    check_mode,
    check_positive_int,
    check_probability,
    check_shape,
)


def leading_mode_rule(order: int, mode: int, layout: Layout) -> bool:
    """True when the estimator plans degree ``N-1`` outright.

    That is a product of order >= 2 over the unit-stride mode (the last
    mode in row-major, mode 0 in column-major).  Its degree-(N-1) plan
    is one contiguous GEMM — ``x.reshape(-1, I_n) @ u.T`` row-major,
    ``u @ x.reshape(I_0, -1)`` column-major — while every smaller degree
    batches transposed views whose rows sit ``B * I_n`` elements apart,
    measured 3-6x slower at power-of-two extents.
    """
    return order >= 2 and mode == leading_mode(order, layout)


class ParameterEstimator:
    """Turns (input geometry, environment) into a :class:`TtmPlan`.

    Parameters
    ----------
    profile:
        GEMM shape benchmark; when given, MSTH/MLTH are derived from it
        per J on demand (and cached).  When None, the paper's measured
        thresholds (1.04 MB / 7.04 MB) are used.
    max_threads:
        The thread budget shared by ``P_L`` and ``P_C``.
    pth_bytes:
        The loop-vs-kernel allocation threshold (paper: 800 KB).
    kappa:
        Fraction of peak defining the threshold window (paper: 0.8);
        validated to lie in [0, 1] here, not at first use.
    """

    def __init__(
        self,
        profile: GemmProfile | None = None,
        max_threads: int = 1,
        pth_bytes: int = DEFAULT_PTH_BYTES,
        kappa: float = 0.8,
        refine_with_model: bool = True,
    ) -> None:
        check_positive_int(max_threads, "max_threads")
        check_positive_int(pth_bytes, "pth_bytes")
        self.profile = profile
        self.max_threads = max_threads
        self.pth_bytes = pth_bytes
        self.kappa = check_probability(kappa, "kappa")
        self.refine_with_model = refine_with_model
        self._threshold_cache: dict[tuple[int, int], Thresholds] = {}

    # -- threshold derivation -------------------------------------------------

    def invalidate_thresholds(self) -> None:
        """Drop every cached window (call after mutating ``profile``)."""
        self._threshold_cache.clear()

    def thresholds_for(self, j: int) -> Thresholds:
        """MSTH/MLTH for output rank *j*.

        Derived from the profile when there is one (cached per
        ``(j, max_threads)``), otherwise the paper's measured defaults.
        """
        check_positive_int(j, "j")
        if self.profile is None:
            return PAPER_THRESHOLDS
        key = (j, self.max_threads)
        cached = self._threshold_cache.get(key)
        if cached is not None:
            return cached
        threads = self._profile_threads()
        m_values = sorted({p.m for p in self.profile.points})
        # Use the profiled m closest to J (the benchmark fixes m to a
        # typical low-rank J; exact match is the common case).
        m_probe = min(m_values, key=lambda m: abs(m - j))
        thresholds = derive_thresholds(
            self.profile, m_probe, threads=threads, kappa=self.kappa
        )
        self._threshold_cache[key] = thresholds
        return thresholds

    def _profile_threads(self) -> int:
        """The profiled thread count to derive thresholds at.

        The largest profiled count within ``max_threads`` — thresholds
        measured at a concurrency we can actually run.  When *every*
        profiled count exceeds the budget the smallest one is used
        anyway (closest available evidence beats refusing to plan); the
        resulting window is then an extrapolation, which is the
        documented, asserted behavior rather than an accident.
        """
        counts = self.profile.thread_counts()
        eligible = [t for t in counts if t <= self.max_threads]
        return max(eligible) if eligible else min(counts)

    # -- estimation -----------------------------------------------------------

    def estimate(
        self,
        shape: Sequence[int],
        mode: int,
        j: int,
        layout: Layout | str = Layout.ROW_MAJOR,
        dtype=None,
    ) -> TtmPlan:
        """The near-optimal plan for one TTM input.

        *dtype* is the element type the plan will execute (default
        float64, the paper's setting).  It scales every byte threshold —
        MSTH/MLTH degree selection and the PTH thread split — and decides
        the kernel: element types real BLAS does not expose route to the
        blocked kernel up front instead of warning at dispatch time.
        """
        counters = active_hot_counters()
        if counters is not None:
            # Planning cost is part of the dispatch overhead the hot-path
            # counters exist to expose: a cache layer that works shows
            # this staying flat while TTM calls accumulate.
            counters.add("estimator_runs")
        layout = Layout.parse(layout)
        dt = DEFAULT_DTYPE if dtype is None else canonical_dtype(dtype)
        shape_t = check_shape(shape)
        mode = check_mode(mode, len(shape_t))
        check_positive_int(j, "j")

        tracer = active_tracer()
        if tracer.enabled:
            with tracer.span(
                "partition",
                shape=list(shape_t),
                mode=mode,
                j=j,
                layout=layout.name,
                dtype=dt.name,
                threads=self.max_threads,
            ) as span:
                plan = self._estimate_impl(shape_t, mode, j, layout, dt)
                span.set(
                    strategy=plan.strategy.value,
                    degree=plan.degree,
                    batch_modes=list(plan.batch_modes),
                    loop_threads=plan.loop_threads,
                    kernel_threads=plan.kernel_threads,
                    kernel=plan.kernel,
                )
            return plan
        return self._estimate_impl(shape_t, mode, j, layout, dt)

    def _estimate_impl(
        self, shape_t: tuple[int, ...], mode: int, j: int, layout: Layout, dt
    ) -> TtmPlan:
        # Figure 7's dispatch: element types BLAS GEMM does not expose
        # (float16) take the BLIS-role kernel up front, which keeps the
        # dispatch-time capability fallback a safety net, not the normal
        # path.  Strided views never force it: default_plan's natural
        # strategy keeps a unit stride in every kernel view.
        kernel = "blas" if kernel_supports("blas", dt) else "blocked"
        order = len(shape_t)
        if leading_mode_rule(order, mode, layout):
            return self._plan_at(
                shape_t, mode, j, layout, dt, kernel, order - 1
            )
        degree = choose_degree(
            shape_t, mode, layout, j, self.thresholds_for(j),
            itemsize=dt.itemsize,
        )
        plan = self._plan_at(shape_t, mode, j, layout, dt, kernel, degree)
        if (
            self.refine_with_model
            and self.profile is not None
            and plan.total_flops > 0
        ):
            # Zero-extent inputs do no work; every degree predicts zero
            # seconds, so there is nothing for the model to rank.
            plan = self._refine(plan)
        return plan

    def _plan_at(
        self, shape_t, mode, j, layout, dt, kernel: str, degree: int
    ) -> TtmPlan:
        """:func:`default_plan` at *degree*, with the PTH thread split.

        The split is priced from the candidate's geometry before the plan
        is built, so each candidate is constructed (and validated) once.
        """
        order = len(shape_t)
        comp = component_modes_for_strategy(
            order, mode, strategy_for(order, mode, layout), degree
        )
        alloc = allocate_threads(
            kernel_working_set_bytes(
                shape_t, mode, j, comp, itemsize=dt.itemsize
            ),
            self.max_threads,
            # Zero-extent tensors have zero iterations; plan the (empty)
            # nest as if it ran once so the thread split stays valid.
            loop_iterations=max(1, math.prod(
                shape_t[m] for m in range(order) if m != mode and m not in comp
            )),
            pth_bytes=self.pth_bytes,
        )
        return default_plan(
            shape_t, mode, j, layout, alloc.loop_threads,
            alloc.kernel_threads, kernel, degree=degree, dtype=dt,
        )

    def _refine(self, plan: TtmPlan) -> TtmPlan:
        """Cross-check the threshold choice against the throughput model.

        The paper's thresholds assume negligible per-iteration loop cost
        (true of its generated C++); a Python loop nest is not free, so
        degrees whose kernels are individually fine can still lose to a
        coarser merge.  The model of :mod:`repro.core.predict` — driven
        by the same MM benchmark — prices that in; the refinement keeps
        the threshold plan unless another degree predicts strictly
        faster.
        """
        from repro.core.predict import predict_gflops, profile_shape

        available = available_modes_for_strategy(
            plan.order, plan.mode, plan.strategy
        )
        # Trust the model only within a margin of the profiled shape
        # range: near the boundary the nearest-neighbour lookup acts as a
        # plateau assumption (the grid's largest shapes already reflect
        # the out-of-cache decline), but far beyond it the cliff is
        # invisible and the prediction would be wildly optimistic.
        max_m = max(p.m for p in self.profile.points)
        max_k = max(p.k for p in self.profile.points)
        max_n = max(p.n for p in self.profile.points)
        margin = 8

        def in_range(candidate: TtmPlan) -> bool:
            m, k, n = profile_shape(candidate)
            return (
                m <= margin * max_m
                and k <= margin * max_k
                and n <= margin * max_n
            )

        best_plan = plan
        best_rate = (
            predict_gflops(plan, self.profile) if in_range(plan) else None
        )
        for degree in range(1, len(available) + 1):
            if degree == plan.degree:
                continue
            candidate = self._plan_at(
                plan.shape, plan.mode, plan.j, plan.layout, plan.np_dtype,
                plan.kernel, degree,
            )
            if not in_range(candidate):
                continue
            rate = predict_gflops(candidate, self.profile)
            if best_rate is None or rate > best_rate:
                best_plan, best_rate = candidate, rate
        return best_plan
