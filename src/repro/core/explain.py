"""Plan explanation: why the estimator chose what it chose.

Autotuners earn trust by showing their work.  :func:`explain_plan`
renders a plan's decision trail in the terms of the paper's §4.3.1 —
which strategy and why, how the degree relates to the MSTH/MLTH window
(or that the leading-mode rule fixed it), which side of PTH the kernel
fell on, and whether the views are BLAS-legal — as plain text for the
CLI (``repro plan --explain``) and for logging in deployments.
"""

from __future__ import annotations

import numpy as np

from repro.core.estimator import leading_mode_rule
from repro.core.partition import Thresholds
from repro.core.plan import Strategy, TtmPlan
from repro.core.threads import DEFAULT_PTH_BYTES
from repro.tensor.layout import Layout
from repro.util.formatting import format_bytes


def explain_plan(
    plan: TtmPlan,
    thresholds: Thresholds | None = None,
    pth_bytes: int = DEFAULT_PTH_BYTES,
) -> str:
    """A multi-line, human-readable rationale for *plan*."""
    lines = [plan.describe(), ""]

    # -- strategy --------------------------------------------------------------
    natural = Strategy.natural_for(plan.layout)
    layout_name = (
        "row-major" if plan.layout is Layout.ROW_MAJOR else "column-major"
    )
    if plan.strategy is natural:
        side = "right" if plan.strategy is Strategy.FORWARD else "left"
        lines.append(
            f"strategy: {plan.strategy.value} — the natural choice for "
            f"{layout_name} storage; merging modes to the {side} of mode "
            f"{plan.mode} keeps the unit-stride dimension inside the kernel."
        )
    else:
        lines.append(
            f"strategy: {plan.strategy.value} (fallback) — mode {plan.mode} "
            f"has no {natural.value}-side modes in {layout_name} storage; "
            "the opposite side is used, and the contracted mode itself "
            "carries the unit stride, so the kernel stays BLAS-legal."
        )

    # -- degree ------------------------------------------------------------------
    ws = plan.kernel_working_set_bytes
    m, k, n = plan.kernel_shape
    degree_line = (
        f"degree: {plan.degree} — inner GEMM is ({m} x {k}) @ ({k} x {n}), "
        f"working set {format_bytes(ws)}"
    )
    if (
        leading_mode_rule(plan.order, plan.mode, plan.layout)
        and plan.degree == plan.order - 1
    ):
        degree_line += (
            f"; the leading-mode rule — mode {plan.mode} carries the unit "
            "stride, so degree N-1 runs the whole product as one contiguous "
            "GEMM (no MSTH/MLTH window or model refinement)."
        )
    elif thresholds is not None:
        if thresholds.contains(ws):
            degree_line += (
                f"; inside the [MSTH={format_bytes(thresholds.msth_bytes)}, "
                f"MLTH={format_bytes(thresholds.mlth_bytes)}] window."
            )
        elif ws < thresholds.msth_bytes:
            degree_line += (
                f"; below MSTH={format_bytes(thresholds.msth_bytes)} — no "
                "larger merge was available (or the model preferred this "
                "degree after pricing loop overhead)."
            )
        else:
            degree_line += (
                f"; above MLTH={format_bytes(thresholds.mlth_bytes)} — the "
                "smallest legal kernel still overshoots the window."
            )
    lines.append(degree_line)
    if plan.degree == 0:
        lines.append(
            "  (degree 0 = fiber representation: no contiguous modes were "
            "available to merge at all — order-1 input.)"
        )

    # -- loops -------------------------------------------------------------------
    if plan.loop_modes:
        extents = " x ".join(str(e) for e in plan.loop_extents)
        loop_line = (
            f"loops: modes {list(plan.loop_modes)} — {extents} = "
            f"{plan.loop_iterations} kernel invocations."
        )
        if plan.batch_modes:
            loop_line += (
                f" Modes {list(plan.batch_modes)} stack into the batch axis "
                f"(B={plan.batch_extent}), so only "
                f"{plan.gemm_dispatch_count} batched GEMM call(s) are "
                "dispatched."
            )
        lines.append(loop_line)
    else:
        lines.append(
            "loops: none — the merge covers every non-product mode, so the "
            "whole TTM is a single kernel call (or one batched matmul)."
        )

    # -- threads -----------------------------------------------------------------
    if plan.loop_threads == plan.kernel_threads == 1:
        lines.append("threads: serial (budget of 1).")
    elif plan.kernel_threads > 1:
        why = (
            f"the working set {format_bytes(ws)} is at or above "
            f"PTH={format_bytes(pth_bytes)}" if ws >= pth_bytes
            else "its loop nest has a single iteration, nothing for P_L"
        )
        lines.append(
            f"threads: P_C={plan.kernel_threads} — each kernel call runs on a "
            f"BLAS pool of {plan.kernel_threads} threads; {why}."
        )
    else:
        lines.append(
            f"threads: P_L={plan.loop_threads} across the loop nest — the "
            f"kernel ({format_bytes(ws)}) is below "
            f"PTH={format_bytes(pth_bytes)}, so coarse-grained parallelism "
            "wins."
        )

    # -- kernel ------------------------------------------------------------------
    legal = plan.views_blas_legal
    lines.append(
        f"kernel: {plan.kernel} — sub-tensor views are "
        f"{'BLAS-legal (unit stride in one dimension)' if legal else 'general-stride (both strides non-unit); the blocked BLIS-role kernel packs panels'}."
    )
    return "\n".join(lines)


def explain_chain(plan, flops_per_byte: float | None = None) -> str:
    """A multi-line rationale for a :class:`~repro.core.chain.ChainPlan`.

    Shows the chosen execution order against the caller's given order —
    flops, intermediate write traffic, and the combined roofline cost
    the planner actually minimized — plus the ping-pong scratch schedule
    and a one-line summary of every pre-built per-step plan.
    """
    from repro.core.chain import (
        DEFAULT_FLOPS_PER_BYTE,
        ChainStep,
        chain_cost,
        chain_flops,
        chain_intermediate_bytes,
    )

    fpb = DEFAULT_FLOPS_PER_BYTE if flops_per_byte is None else flops_per_byte
    lines = [plan.describe(), ""]
    if not plan.step_plans:
        lines.append("empty chain: nothing to execute.")
        return "\n".join(lines)

    # Rebuild the caller's original (mode, J) sequence from the executed
    # plans: step_plans[k] executes original step order[k].  The dummy
    # matrices are zero-byte broadcast views — only their shapes matter
    # to the cost models.
    original: list[ChainStep | None] = [None] * plan.n_steps
    for k, step_plan in enumerate(plan.step_plans):
        i_n = plan.shape[step_plan.mode]
        matrix = np.broadcast_to(np.float64(0.0), (step_plan.j, i_n))
        original[plan.order[k]] = ChainStep(step_plan.mode, matrix)
    steps = [s for s in original if s is not None]
    itemsize = plan.itemsize

    given_flops = chain_flops(plan.shape, steps)
    chosen_flops = chain_flops(plan.shape, steps, plan.order)
    given_bytes, given_peak = chain_intermediate_bytes(
        plan.shape, steps, itemsize=itemsize
    )
    chosen_bytes, chosen_peak = chain_intermediate_bytes(
        plan.shape, steps, plan.order, itemsize=itemsize
    )
    given_cost = chain_cost(plan.shape, steps, itemsize=itemsize,
                            flops_per_byte=fpb)
    chosen_cost = chain_cost(plan.shape, steps, plan.order,
                             itemsize=itemsize, flops_per_byte=fpb)

    seq = " -> ".join(
        f"mode {p.mode} (I={plan.shape[p.mode]} -> J={p.j})"
        for p in plan.step_plans
    )
    lines.append(f"order: {list(plan.order)} — {seq}.")

    def ratio(given: float, chosen: float) -> str:
        if chosen <= 0:
            return "1.00x"
        return f"{given / chosen:.2f}x"

    lines.append(
        f"flops: {chosen_flops:,} vs {given_flops:,} as given "
        f"({ratio(given_flops, chosen_flops)} saved by reordering)."
    )
    lines.append(
        f"intermediate writes: {format_bytes(chosen_bytes)} total / "
        f"{format_bytes(chosen_peak)} peak, vs {format_bytes(given_bytes)} / "
        f"{format_bytes(given_peak)} as given."
    )
    lines.append(
        f"roofline cost (@ {fpb:.1f} flops/byte): {chosen_cost:,.0f} vs "
        f"{given_cost:,.0f} byte-equivalents "
        f"({ratio(given_cost, chosen_cost)}) — the planner minimizes this "
        "combined figure, so an order that saves traffic wins whenever the "
        "chain is bandwidth-bound."
    )

    slots = plan.scratch_elements
    if slots:
        sizes = " + ".join(
            format_bytes(e * itemsize) for e in slots
        )
        lines.append(
            f"scratch: {len(slots)} ping-pong slot(s) ({sizes}) — "
            f"intermediates alternate slots, so this {plan.n_steps}-step "
            "chain makes at most 2 allocations (0 once the pool is warm); "
            "the final product writes the caller's out."
        )
    else:
        lines.append(
            "scratch: none — a single-step chain writes the output directly."
        )

    lines.append("")
    lines.append("per-step plans (pre-built once, cached per chain signature):")
    for k, step_plan in enumerate(plan.step_plans):
        last = k == plan.n_steps - 1
        target = "out" if last else f"slot {k % 2}"
        lines.append(f"  step {k} -> {target}: {step_plan.describe()}")
    return "\n".join(lines)
