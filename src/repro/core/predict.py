"""Performance prediction for TTM plans.

Given a GEMM shape profile (measured or synthetic), predict the
throughput of a TTM plan without running it: the inner kernel's rate
comes from the profile at the plan's :func:`profile_shape` and thread
count, and a per-iteration dispatch overhead models the loop nest.  This
is how the framework can *rank* candidate plans offline — and how
figure 9 can be projected onto the paper's two platforms from their
roofline presets.
"""

from __future__ import annotations

from repro.core.plan import TtmPlan
from repro.gemm.bench import GemmProfile
from repro.util.errors import BenchmarkError

#: Python-level per-iteration dispatch cost (view construction + call),
#: measured once on CPython 3.11; only matters for tiny kernels.
LOOP_OVERHEAD_SECONDS = 4.0e-6


def profile_shape(plan: TtmPlan) -> tuple[int, int, int]:
    """The plan's inner GEMM as the profile measures it: ``(J, I_n, P)``.

    The profile fixes m to J (:func:`~repro.gemm.bench.default_shape_grid`).
    A forward kernel dispatches exactly that shape; a backward one
    dispatches its transpose ``(P, I_n, J)`` — the same product and
    access pattern — so both are priced at the same profile point.
    ``plan.kernel_shape`` stays the dispatched shape.
    """
    return (plan.j, plan.i_n, plan.component_extent)


def predict_seconds(
    plan: TtmPlan,
    profile: GemmProfile,
    loop_overhead: float = LOOP_OVERHEAD_SECONDS,
) -> float:
    """Predicted wall seconds for one execution of *plan*."""
    m, k, n = profile_shape(plan)
    threads = plan.kernel_threads
    counts = profile.thread_counts()
    if threads not in counts:
        eligible = [t for t in counts if t <= threads]
        threads = max(eligible) if eligible else min(counts)
    gflops = profile.gflops(m, k, n, threads)
    if gflops <= 0.0:
        raise BenchmarkError(
            f"profile predicts non-positive rate for kernel {(m, k, n)}"
        )
    kernel_seconds = plan.kernel_flops / (gflops * 1e9)
    iterations = plan.loop_iterations
    # Loop-level parallelism divides both kernel time and dispatch cost.
    per_iter = kernel_seconds + loop_overhead
    return iterations * per_iter / plan.loop_threads


def predict_gflops(
    plan: TtmPlan,
    profile: GemmProfile,
    loop_overhead: float = LOOP_OVERHEAD_SECONDS,
) -> float:
    """Predicted end-to-end GFLOP/s of *plan*."""
    seconds = predict_seconds(plan, profile, loop_overhead)
    if seconds <= 0.0:
        # Degenerate (zero-flop) plans predict zero time; their rate is
        # meaningless, so report zero rather than dividing by it.
        return 0.0
    return plan.total_flops / seconds / 1e9


def rank_plans(
    plans,
    profile: GemmProfile,
    loop_overhead: float = LOOP_OVERHEAD_SECONDS,
) -> list[tuple[TtmPlan, float]]:
    """(plan, predicted GFLOP/s) sorted best-first."""
    scored = [
        (plan, predict_gflops(plan, profile, loop_overhead))
        for plan in plans
    ]
    return sorted(scored, key=lambda item: -item[1])
