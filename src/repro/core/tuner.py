"""Exhaustive plan search: the ground truth the heuristics are judged by.

Figure 12 compares the estimator's single predicted configuration against
the best of an exhaustive sweep (16 configurations for a mode-1 product
on a 5th-order tensor).  ``enumerate_plans`` generates the same space —
every legal degree crossed with both thread allocations (all-loops vs
all-kernel) — and :class:`ExhaustiveTuner` times each candidate on the
actual input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.inttm import default_plan
from repro.core.partition import available_modes_for_strategy, strategy_for
from repro.core.plan import TtmPlan
from repro.obs.tracer import active_tracer
from repro.perf.flops import gflops_rate, ttm_flops
from repro.perf.profiler import active_hot_counters
from repro.perf.timing import time_callable
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout
from repro.util.validation import check_mode, check_positive_int, check_shape


def enumerate_plans(
    shape: Sequence[int],
    mode: int,
    j: int,
    layout: Layout | str = Layout.ROW_MAJOR,
    max_threads: int = 1,
    kernels: Sequence[str] = ("blas",),
    dtype="float64",
) -> list[TtmPlan]:
    """Every legal configuration for one input, built by :func:`default_plan`.

    The space is degrees ``1..len(available)`` (plus 0 only when no
    contiguous modes exist) x thread allocations x kernels.  With one
    thread the two allocations coincide and are deduplicated.
    """
    layout = Layout.parse(layout)
    shape_t = check_shape(shape)
    order = len(shape_t)
    mode = check_mode(mode, order)
    check_positive_int(j, "j")
    check_positive_int(max_threads, "max_threads")
    available = available_modes_for_strategy(
        order, mode, strategy_for(order, mode, layout)
    )
    degrees = range(1, len(available) + 1) if available else [0]
    if max_threads == 1:
        allocations = [(1, 1)]
    else:
        allocations = [(max_threads, 1), (1, max_threads)]
    return [
        default_plan(
            shape_t, mode, j, layout, p_l, p_c, kernel, degree=degree,
            dtype=dtype,
        )
        for degree in degrees
        for p_l, p_c in allocations
        for kernel in kernels
    ]


@dataclass
class TunerResult:
    """Outcome of an exhaustive sweep over one input."""

    plans: list[TtmPlan]
    seconds: list[float]
    flops: int

    @property
    def best_index(self) -> int:
        return int(np.argmin(self.seconds))

    @property
    def best_plan(self) -> TtmPlan:
        return self.plans[self.best_index]

    @property
    def best_gflops(self) -> float:
        return gflops_rate(self.flops, self.seconds[self.best_index])

    def gflops_of(self, plan: TtmPlan) -> float:
        """Measured rate of a specific candidate from this sweep."""
        idx = self.plans.index(plan)
        return gflops_rate(self.flops, self.seconds[idx])

    def table(self) -> list[tuple[str, float]]:
        """(description, GFLOP/s) per candidate, best first."""
        rows = [
            (p.describe(), gflops_rate(self.flops, s))
            for p, s in zip(self.plans, self.seconds)
        ]
        return sorted(rows, key=lambda r: -r[1])


class ExhaustiveTuner:
    """Times every candidate plan on a real input (figure 12's gray bars).

    Candidates run as their compiled code alone (no validation or memory
    guard around it), so the comparison isolates the *plan* choice.
    """

    def __init__(self, min_seconds: float = 0.02, min_repeats: int = 2):
        self.min_seconds = min_seconds
        self.min_repeats = min_repeats

    def time_plan(
        self,
        plan: TtmPlan,
        x: DenseTensor,
        u: np.ndarray,
        out: DenseTensor | None = None,
    ) -> float:
        """Measured seconds for one candidate on real data.

        The unit the sweep is built from, exposed so callers that only
        want to try *a few* candidates — the autotune session's online
        refinement — time them exactly the way the exhaustive tuner
        would.
        """
        if out is None:
            out = DenseTensor.empty(plan.out_shape, x.layout, dtype=plan.dtype)
        fn = plan.compiled.fn
        u = np.asarray(u)
        return time_callable(
            lambda: fn(x.data, u, out.data),
            min_repeats=self.min_repeats, min_seconds=self.min_seconds,
        )

    def sweep(
        self,
        x: DenseTensor,
        u: np.ndarray,
        mode: int,
        max_threads: int = 1,
        kernels: Sequence[str] = ("blas",),
    ) -> TunerResult:
        """Run all candidates for ``X x_mode U``; returns their timings."""
        counters = active_hot_counters()
        if counters is not None:
            counters.add("tuner_sweeps")
        u = np.asarray(u)
        plans = enumerate_plans(
            x.shape, mode, u.shape[0], x.layout, max_threads, kernels,
            dtype=x.data.dtype.name,
        )
        out = DenseTensor.empty(
            plans[0].out_shape, x.layout, dtype=x.data.dtype.name
        )
        tracer = active_tracer()
        if tracer.enabled:
            with tracer.span(
                "tuner-sweep",
                shape=list(x.shape),
                mode=mode,
                j=int(u.shape[0]),
                layout=x.layout.name,
                candidates=len(plans),
            ) as span:
                seconds = [self.time_plan(plan, x, u, out) for plan in plans]
                span.set(best=plans[int(np.argmin(seconds))].describe())
        else:
            seconds = [self.time_plan(plan, x, u, out) for plan in plans]
        return TunerResult(
            plans=plans, seconds=seconds, flops=ttm_flops(x.shape, u.shape[0])
        )
