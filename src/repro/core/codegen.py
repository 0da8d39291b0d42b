"""Code generation: emit a specialized Python TTM for one plan (§4.3.2).

The paper generates C++/OpenMP; this reproduction generates Python with
the identical structure — a literal nested loop over the loop modes and
an inner kernel call on reshaped *views* — then compiles it with
``compile()``/``exec``.  The value mirrors the paper's: all plan logic is
resolved at generation time, leaving straight-line code whose loop
bounds, index expressions, and reshape extents are literals; the source
is inspectable (``generate_source``) and the compiled callables are
cached per plan.

A plan compiles to one of two shapes.  The **batched** shape serves
every plan on the single-threaded BLAS fast path that has batch modes or
no loop modes: ``x``/``y`` become ``(outer..., batch, rows, cols)``
views through one ``reshape`` and one ``transpose``, hoisted above the
loops, and each outer index is one ``np.matmul``.  Every other plan
(non-BLAS kernels, ``P_C > 1``, unbatched plans with loops) runs the
**per-iteration** nest: one 2-D kernel call per loop index.

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
from repro.gemm.threaded import gemm_threaded
from repro.parallel.parfor import parfor
from repro.tensor.layout import Layout

_CACHE: dict[TtmPlan, object] = {}


class DispatchCounts(NamedTuple):
    """Kernel dispatches one call of a compiled plan performs."""

    gemm_calls: int = 0
    batched_calls: int = 0
    batched_slices: int = 0
    max_batch: int = 0

    @property
    def dispatches(self) -> int:
        return self.gemm_calls + self.batched_calls


def _kernel_call(plan: TtmPlan) -> str:
    if plan.kernel_threads > 1:
        inner = "auto" if plan.kernel == "threaded" else plan.kernel
        return (
            f"gemm_threaded({{a}}, {{b}}, out={{c}}, "
            f"threads={plan.kernel_threads}, kernel={inner!r})"
        )
    if plan.kernel == "blas" and blas_dtype_legal(plan.np_dtype):
        # Fast path: call BLAS directly, skipping dispatch overhead.
        return "np.matmul({a}, {b}, out={c})"
    if plan.kernel in ("blas", "blocked"):
        # Element types BLAS does not expose (float16) take the blocked
        # kernel — the same capability fallback resolve_kernel applies.
        return "gemm_blocked({a}, {b}, out={c})"
    return f"gemm({{a}}, {{b}}, out={{c}}, kernel={plan.kernel!r})"


def _batch_views(plan: TtmPlan) -> tuple[str, str]:
    """Hoisted view expressions ``(x3, y3)`` for the batched shape.

    Every mode role — each outer loop mode, the batch run, the contracted
    mode and the component run — is a consecutive index run of storage
    that is contiguous in the plan's layout, so one ``reshape`` merges
    each run in place and one ``transpose`` orders the merged axes as
    ``(outer..., batch, rows, cols)``: a copy-free view of the whole
    operand, built once per call.  Rows/cols are (mode, component) for
    forward plans and fiber plans (an empty component run becomes an
    extent-1 axis), (component, mode) for backward ones.
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


def _batched_source(plan: TtmPlan) -> tuple[list[str], DispatchCounts] | None:
    """Body lines (and their dispatch counts) for the one batched shape.

    Applies when the inner kernel is the single-threaded BLAS fast path
    and the plan has batch modes or no loop modes at all: the views are
    hoisted above any loop, and each outer index (or the whole call) is
    one ``np.matmul`` over its rank-3 slice.  None otherwise — the plan
    then runs the per-iteration nest.
    """
    if plan.loop_modes and not plan.batch_modes:
        return None
    if plan.kernel_threads > 1 or plan.kernel not in ("blas", "auto"):
        return None
    if not blas_dtype_legal(plan.np_dtype):
        return None
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    x3, y3 = _batch_views(plan)
    lines = [f"    x3 = {x3}", f"    y3 = {y3}"]
    if not forward:
        lines.append("    ut = u.T")
    outer = plan.outer_loop_modes
    b = plan.batch_extent

    def call(sub: str) -> str:
        if forward:
            return f"np.matmul(u, x3{sub}, out=y3{sub})"
        return f"np.matmul(x3{sub}, ut, out=y3{sub})"

    if outer:
        index = ", ".join(f"i{m}" for m in outer)
        lines += _nest(plan, outer, [call(f"[{index}]")])
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
            f"        {call('[lo:hi]')}",
            f"    parfor(({n_chunks},), body, threads={plan.loop_threads})",
        ]
        return lines, DispatchCounts(0, n_chunks, b, chunk)
    lines.append(f"    {call('')}")
    return lines, DispatchCounts(0, 1, b, b)


def _looped_source(plan: TtmPlan) -> tuple[list[str], DispatchCounts]:
    """Body lines for the per-iteration nest: one kernel call per loop index.

    Each iteration reshapes its own 2-D sub-tensor views; this is the
    shape for non-BLAS kernels, ``P_C > 1`` and unbatched plans.
    """
    sub_expr = ", ".join(
        f"i{m}" if m in plan.loop_modes else ":" for m in range(plan.order)
    )
    i_n, p, j = plan.i_n, plan.component_extent, plan.j
    forward = plan.strategy is Strategy.FORWARD
    order_kw = ", order='F'" if plan.layout is Layout.COL_MAJOR else ""

    if plan.degree == 0:
        x_shape, y_shape = (i_n, 1), (j, 1)
    elif forward:
        x_shape, y_shape = (i_n, p), (j, p)
    else:
        x_shape, y_shape = (p, i_n), (p, j)

    lines = []
    if not forward and plan.degree > 0:
        lines.append("    ut = u.T")
    body_lines = [
        f"x_sub = x[{sub_expr}].reshape({x_shape}{order_kw})",
        f"y_sub = y[{sub_expr}].reshape({y_shape}{order_kw})",
    ]
    if plan.degree == 0 or forward:
        call = _kernel_call(plan).format(a="u", b="x_sub", c="y_sub")
    else:
        call = _kernel_call(plan).format(a="x_sub", b="ut", c="y_sub")
    body_lines.append(call)
    lines += _nest(plan, plan.loop_modes, body_lines)
    return lines, DispatchCounts(plan.loop_iterations)


def _nest(
    plan: TtmPlan, modes: tuple[int, ...], body_lines: list[str]
) -> list[str]:
    """*body_lines* under a literal loop nest over *modes* (``parfor``
    over their collapsed index space at P_L > 1)."""
    loop_vars = [f"i{m}" for m in modes]
    if plan.loop_threads > 1 and modes:
        # Parallel driver: collapsed index space chunked over P_L threads.
        var_tuple = ", ".join(loop_vars)
        unpack = var_tuple if len(modes) > 1 else f"({var_tuple},)"
        extents = tuple(plan.shape[m] for m in modes)
        return [
            "    def body(_index):",
            f"        {unpack} = _index",
            *[f"        {bl}" for bl in body_lines],
            f"    parfor({extents!r}, body, threads={plan.loop_threads})",
        ]
    lines = [
        f"    {'    ' * depth}for {var} in range({plan.shape[m]}):"
        for depth, (m, var) in enumerate(zip(modes, loop_vars))
    ]
    lines += [f"    {'    ' * len(modes)}{bl}" for bl in body_lines]
    return lines


def generate_source(plan: TtmPlan, function_name: str = "inttm") -> str:
    """Python source of the specialized TTM for *plan*.

    The emitted function has signature ``(x, u, y)`` over raw ndarrays
    (``x``/``y`` in the plan's layout) and returns ``y``.
    """
    return _emit(plan, function_name)[0]


def _emit(plan: TtmPlan, function_name: str) -> tuple[str, DispatchCounts]:
    """The source for *plan* and the dispatch counts its body performs."""
    body, counts = _batched_source(plan) or _looped_source(plan)
    lines = [
        f"def {function_name}(x, u, y):",
        f'    """{plan.describe()}"""',
        *body,
        "    return y",
    ]
    return "\n".join(lines) + "\n", counts


def compile_plan(plan: TtmPlan):
    """Compile (and cache) the specialized TTM callable for *plan*.

    The returned function takes ``(x_data, u, y_data)`` ndarrays and
    writes through ``y_data``; its ``__source__`` is the generated code
    and its ``counts`` the :class:`DispatchCounts` of one call.
    """
    cached = _CACHE.get(plan)
    if cached is not None:
        return cached
    source, counts = _emit(plan, "inttm")
    namespace = {
        "np": np,
        "gemm": gemm,
        "gemm_blocked": gemm_blocked,
        "gemm_threaded": gemm_threaded,
        "parfor": parfor,
    }
    code = compile(source, f"<inttm:{hash(plan) & 0xFFFFFFFF:08x}>", "exec")
    exec(code, namespace)
    fn = namespace["inttm"]
    fn.__source__ = source
    fn.counts = counts
    _CACHE[plan] = fn
    return fn


def clear_cache() -> None:
    """Drop all compiled plans (mostly for tests)."""
    _CACHE.clear()
