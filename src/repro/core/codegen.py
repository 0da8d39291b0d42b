"""Code generation: emit a specialized Python TTM for one plan (§4.3.2).

The paper generates C++/OpenMP; this reproduction generates Python with
the identical structure — a literal nested loop over the loop modes and
an inner kernel call on reshaped *views* — then compiles it with
``compile()``/``exec``.  The value mirrors the paper's: all plan logic is
resolved at generation time, leaving straight-line code whose loop
bounds, index expressions, and reshape extents are literals; the source
is inspectable (``generate_source``).  ``compile_plan`` compiles on
every call and keeps nothing: the plan instance that asked owns the
result (:attr:`repro.core.plan.TtmPlan.compiled`), so whoever holds
plans holds their kernels, and dropping a plan frees its kernel.

Every plan compiles to one shape: ``x``/``y`` become ``(outer...,
batch, rows, cols)`` views through one ``reshape`` and one
``transpose``, hoisted above the loops.  On the BLAS fast path a plan
with batch modes (or no loop modes) makes one rank-3 ``np.matmul`` per
outer index.  Every other plan — non-BLAS kernels, float16, unbatched
plans with loops — makes one 2-D kernel call per (outer, batch) index
on those same views.  A ``P_C > 1`` plan runs that body inside ``with
blas_threads(P_C):``, or as ``P_C = 1`` when BLAS cannot run or size it.

The generated reshapes are views, never copies, because of one invariant
the callers uphold: ``DenseTensor`` data is contiguous in its layout.
Every mode role (component run, mode, batch run, loop mode) is then a
consecutive run of a contiguous tensor (Lemma 4.1), and NumPy merges
nesting axes without copying.  An output ``y`` that broke the invariant
would be reshaped into a copy and the writes lost, so the executor only
hands generated code ``DenseTensor`` storage, plus the tiling layer's
strided tiles whose merged runs still nest
(:func:`repro.core.tiling.runs_in_place`).

Each compiled function also carries its **dispatch counts**
(:class:`DispatchCounts`), fixed when the body is emitted: how many 2-D
kernel calls and how many batched matmuls (over how many slices) one
call performs.  The executor reports them to the hot-path counters once
per call, so instrumentation costs nothing per loop iteration.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.core.plan import Strategy, TtmPlan
from repro.gemm.blocked import gemm_blocked
from repro.gemm.interface import blas_dtype_legal, gemm
from repro.parallel.parfor import parfor
from repro.perf.blasctl import blas_pinning_available, blas_threads
from repro.resilience.faults import record_degradation
from repro.tensor.layout import Layout


class DispatchCounts(NamedTuple):
    """Kernel dispatches one call of a compiled plan performs."""

    gemm_calls: int = 0
    batched_calls: int = 0
    batched_slices: int = 0
    max_batch: int = 0

    @property
    def dispatches(self) -> int:
        return self.gemm_calls + self.batched_calls


def _blas_path(plan: TtmPlan) -> bool:
    """True for the BLAS fast path: ``np.matmul`` inline."""
    return plan.kernel in ("blas", "auto", "threaded") and blas_dtype_legal(
        plan.np_dtype
    )


def _pool_threads(plan: TtmPlan) -> int:
    """``P_C`` when BLAS runs the kernel and its pool can be sized, else 1."""
    sized = plan.kernel_threads > 1 and _blas_path(plan) and blas_pinning_available()
    return plan.kernel_threads if sized else 1


def _kernel_call(plan: TtmPlan) -> str:
    """The 2-D kernel call template, with ``{a}``, ``{b}``, ``{c}`` holes."""
    if _blas_path(plan):
        return "np.matmul({a}, {b}, out={c})"
    if plan.kernel in ("blas", "auto", "threaded", "blocked"):
        # Element types BLAS does not expose (float16) take the blocked
        # kernel — the same capability fallback resolve_kernel applies.
        return "gemm_blocked({a}, {b}, out={c})"
    return f"gemm({{a}}, {{b}}, out={{c}}, kernel={plan.kernel!r})"


def _batch_views(plan: TtmPlan) -> tuple[str, str]:
    """Hoisted view expressions ``(x3, y3)`` for every plan.

    Every mode role — each outer loop mode, the batch run, the contracted
    mode and the component run — is a consecutive index run of storage
    that is contiguous in the plan's layout, so one ``reshape`` merges
    each run in place and one ``transpose`` orders the merged axes as
    ``(outer..., batch, rows, cols)``: a copy-free view of the whole
    operand, built once per call.  Rows/cols are (mode, component) for
    forward plans and fiber plans (an empty component run becomes an
    extent-1 axis), (component, mode) for backward ones; an unbatched
    plan's batch axis has extent 1.
    """
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    comp, mode = plan.component_modes, (plan.mode,)
    roles = [(m,) for m in plan.outer_loop_modes] + [plan.batch_modes]
    roles += [mode, comp] if forward else [comp, mode]
    # Reshape order is index order; an empty run (no batch modes, or a
    # fiber plan's component run) is an extent-1 axis and goes first.
    order = sorted(range(len(roles)), key=lambda k: min(roles[k], default=-1))
    perm = tuple(order.index(k) for k in range(len(roles)))
    order_kw = ", order='F'" if plan.layout is Layout.COL_MAJOR else ""
    transpose = "" if perm == tuple(range(len(perm))) else f".transpose{perm}"

    def view(name: str, shape: tuple[int, ...]) -> str:
        extents = tuple(math.prod(shape[m] for m in roles[k]) for k in order)
        return f"{name}.reshape({extents}{order_kw}){transpose}"

    return view("x", plan.shape), view("y", plan.out_shape)


def _body_source(plan: TtmPlan) -> tuple[list[str], DispatchCounts]:
    """Body lines (and their dispatch counts) for the one code shape.

    ``x3``/``y3`` are hoisted above any loop (:func:`_batch_views`).  On
    the BLAS path a plan with batch modes, or with no loop modes at all,
    makes one rank-3 ``np.matmul`` per outer index (or one for the whole
    call).  Every other plan makes one 2-D kernel call per (outer,
    batch) index on the same views.
    """
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    x3, y3 = _batch_views(plan)
    lines = [f"    x3 = {x3}", f"    y3 = {y3}"]
    if not forward:
        lines.append("    ut = u.T")
    outer = [(f"i{m}", plan.shape[m]) for m in plan.outer_loop_modes]
    b = plan.batch_extent

    def call(template: str, sub: str) -> str:
        if forward:
            return template.format(a="u", b=f"x3{sub}", c=f"y3{sub}")
        return template.format(a=f"x3{sub}", b="ut", c=f"y3{sub}")

    if not _blas_path(plan) or (plan.loop_modes and not plan.batch_modes):
        batch = "ib" if plan.batch_modes else "0"
        loops = outer + ([(batch, b)] if plan.batch_modes else [])
        index = ", ".join([var for var, _ in outer] + [batch])
        lines += _nest(plan, loops, [call(_kernel_call(plan), f"[{index}]")])
        return lines, DispatchCounts(plan.loop_iterations)
    matmul = "np.matmul({a}, {b}, out={c})"
    if outer:
        index = ", ".join(var for var, _ in outer)
        lines += _nest(plan, outer, [call(matmul, f"[{index}]")])
        calls = plan.outer_loop_iterations
        return lines, DispatchCounts(0, calls, calls * b, b)
    if plan.loop_threads > 1 and b > 1:
        # No outer nest to split: chunk the batch run over P_L workers.
        n_chunks = min(plan.loop_threads, b)
        chunk = math.ceil(b / n_chunks)
        lines += [
            "    def body(_index):",
            f"        lo = _index[0] * {chunk}",
            f"        hi = min(lo + {chunk}, {b})",
            f"        {call(matmul, '[lo:hi]')}",
            f"    parfor(({n_chunks},), body, threads={plan.loop_threads})",
        ]
        return lines, DispatchCounts(0, n_chunks, b, chunk)
    lines.append(f"    {call(matmul, '')}")
    return lines, DispatchCounts(0, 1, b, b)


def _nest(
    plan: TtmPlan, loops: list[tuple[str, int]], body_lines: list[str]
) -> list[str]:
    """*body_lines* under a literal nest over *loops* (``(var, extent)``
    pairs), or ``parfor`` over their collapsed index space at P_L > 1."""
    if plan.loop_threads > 1 and loops:
        # Parallel driver: collapsed index space chunked over P_L threads.
        var_tuple = ", ".join(var for var, _ in loops)
        unpack = var_tuple if len(loops) > 1 else f"({var_tuple},)"
        extents = tuple(extent for _, extent in loops)
        return [
            "    def body(_index):",
            f"        {unpack} = _index",
            *[f"        {bl}" for bl in body_lines],
            f"    parfor({extents!r}, body, threads={plan.loop_threads})",
        ]
    lines = [
        f"    {'    ' * depth}for {var} in range({extent}):"
        for depth, (var, extent) in enumerate(loops)
    ]
    lines += [f"    {'    ' * len(loops)}{bl}" for bl in body_lines]
    return lines


def generate_source(plan: TtmPlan, function_name: str = "inttm") -> str:
    """Python source of the specialized TTM for *plan*.

    The emitted function has signature ``(x, u, y)`` over raw ndarrays
    (``x``/``y`` in the plan's layout) and returns ``y``.
    """
    return _emit(plan, function_name)[0]


def _emit(plan: TtmPlan, function_name: str) -> tuple[str, DispatchCounts]:
    """The source for *plan* and the dispatch counts its body performs."""
    body, counts = _body_source(plan)
    pool = _pool_threads(plan)
    if pool > 1:  # everything after the two hoisted views
        wrapped = ["    " + line for line in body[2:]]
        body[2:] = [f"    with blas_threads({pool}):", *wrapped]
    lines = [
        f"def {function_name}(x, u, y):",
        f'    """{plan.describe()}"""',
        *body,
        "    return y",
    ]
    return "\n".join(lines) + "\n", counts


def compile_plan(plan: TtmPlan):
    """Compile the specialized TTM callable for *plan*, afresh on every call.

    The returned function takes ``(x_data, u, y_data)`` ndarrays and
    writes through ``y_data``; its ``__source__`` is the generated code
    and its ``counts`` the :class:`DispatchCounts` of one call.  Nothing
    here keeps it: :attr:`TtmPlan.compiled` calls this once per plan
    instance and is the kernel's one holder.
    """
    if plan.kernel_threads > _pool_threads(plan):
        record_degradation("kernel_thread_degradations", kernel_threads_degraded=True)
    source, counts = _emit(plan, "inttm")
    namespace = {
        "np": np,
        "gemm": gemm,
        "gemm_blocked": gemm_blocked,
        "blas_threads": blas_threads,
        "parfor": parfor,
    }
    code = compile(source, f"<inttm:{hash(plan) & 0xFFFFFFFF:08x}>", "exec")
    exec(code, namespace)
    fn = namespace["inttm"]
    fn.__source__ = source
    fn.counts = counts
    return fn
