"""Code generation: emit a specialized Python TTM for one plan (§4.3.2).

The paper generates C++/OpenMP; this reproduction generates Python with
the identical structure — a literal nested loop over the loop modes and
an inner kernel call on reshaped *views* — then compiles it with
``compile()``/``exec``.  The value mirrors the paper's: all plan logic is
resolved at generation time, leaving straight-line code whose loop
bounds, index expressions, and reshape extents are literals; the source
is inspectable (``generate_source``) and the compiled callables are
cached per plan.

The generated reshapes are views, never copies, because of one invariant
the callers uphold: ``DenseTensor`` data is contiguous in its layout.
Component modes are then a contiguous run of a contiguous tensor (Lemma
4.1), whose strides still nest after the loop-mode axes are indexed
away, and NumPy merges nesting axes without copying.  An output ``y``
that broke the invariant would be reshaped into a copy and the writes
lost, so the executor only hands generated code ``DenseTensor`` storage.

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
from repro.tensor.layout import Layout, element_strides

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


def _index_expr(plan: TtmPlan, loop_vars: dict[int, str]) -> str:
    """The subscript selecting one kernel's sub-tensor, e.g. ``i0, :, i1, :``."""
    parts = []
    for axis in range(plan.order):
        if axis in loop_vars:
            parts.append(loop_vars[axis])
        else:
            parts.append(":")
    return ", ".join(parts)


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


def _batched_form(plan: TtmPlan) -> str | None:
    """A single batched-GEMM body when the whole loop nest collapses.

    When the loop modes are exactly the modes *between* the storage start
    and the mode/component block — ``{0..n-1}`` for row-major forward,
    ``{n+1..N-1}`` for column-major backward — the generated loop nest is
    equivalent to one rank-3 batched matmul over contiguous views.  NumPy
    executes the batch loop in C (one BLAS call per slice), which is the
    closest Python analogue of the paper's compiled OpenMP loop nest, so
    this is the preferred single-threaded code shape.
    """
    if plan.loop_threads > 1 or plan.kernel_threads > 1:
        return None
    if plan.kernel not in ("blas", "auto"):
        return None
    if not blas_dtype_legal(plan.np_dtype):
        return None
    if plan.degree == 0:
        return None
    i_n, p, j = plan.i_n, plan.component_extent, plan.j
    loops = plan.loop_modes
    batch = 1
    for m in loops:
        batch *= plan.shape[m]
    forward = plan.strategy is Strategy.FORWARD
    row_major = plan.layout is Layout.ROW_MAJOR
    if forward and row_major and loops == tuple(range(plan.mode)):
        # x viewed as (L, I_n, P) C-order; y as (L, J, P).
        return (
            f"    x3 = x.reshape(({batch}, {i_n}, {p}))\n"
            f"    y3 = y.reshape(({batch}, {j}, {p}))\n"
            f"    np.matmul(u, x3, out=y3)\n"
        )
    if (
        not forward
        and not row_major
        and loops == tuple(range(plan.order - 1, plan.mode, -1))
    ):
        # x viewed as (P, I_n, L) F-order; batch over the trailing axis.
        return (
            f"    ut = u.T\n"
            f"    x3 = x.reshape(({p}, {i_n}, {batch}), order='F')"
            f".transpose(2, 0, 1)\n"
            f"    y3 = y.reshape(({p}, {j}, {batch}), order='F')"
            f".transpose(2, 0, 1)\n"
            f"    np.matmul(x3, ut, out=y3)\n"
        )
    if (
        not forward
        and row_major
        and plan.mode == plan.order - 1
        and sorted(loops) == list(range(plan.degree, plan.mode))
    ):
        # Backward on the last row-major mode: blocks are [comp][loops][mode]
        # in storage order; batch over the (middle) loop block.
        return (
            f"    ut = u.T\n"
            f"    x3 = x.reshape(({p}, {batch}, {i_n}))"
            f".transpose(1, 0, 2)\n"
            f"    y3 = y.reshape(({p}, {batch}, {j}))"
            f".transpose(1, 0, 2)\n"
            f"    np.matmul(x3, ut, out=y3)\n"
        )
    if (
        forward
        and not row_major
        and plan.mode == 0
        and sorted(loops) == list(range(1, plan.order - plan.degree))
    ):
        # Forward on the first column-major mode: blocks are
        # [mode][loops][comp] in index order; batch over the loop block.
        return (
            f"    x3 = x.reshape(({i_n}, {batch}, {p}), order='F')"
            f".transpose(1, 0, 2)\n"
            f"    y3 = y.reshape(({j}, {batch}, {p}), order='F')"
            f".transpose(1, 0, 2)\n"
            f"    np.matmul(u, x3, out=y3)\n"
        )
    return None


def _batch_view_exprs(plan: TtmPlan) -> tuple[str, str, str, str]:
    """Literal ``as_strided`` expressions for the batched operand views.

    Returns ``(x3_expr, y3_expr, x_offset, y_offset)`` where the offset
    strings are linear forms in the outer loop variables (``'0'`` when no
    outer loop remains).  All extents and byte strides are resolved to
    literals at generation time — the generated body does no stride
    arithmetic beyond the offset dot-product.
    """
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    x_strides = element_strides(plan.shape, plan.layout)
    y_strides = element_strides(plan.out_shape, plan.layout)
    outer = plan.outer_loop_modes
    batch = plan.batch_modes
    comp = plan.component_modes
    b = plan.batch_extent
    i_n, p, j = plan.i_n, plan.component_extent, plan.j

    def run_stride(strides, shape, run):
        # Merged-run element stride: the smallest stride of its non-size-1
        # modes (nesting already validated by the plan); 1 for empty runs.
        effective = [m for m in run if shape[m] != 1]
        return min(strides[m] for m in effective) if effective else 1

    itemsize = plan.itemsize

    def views(strides, shape, row_extent):
        bs = run_stride(strides, shape, batch)
        rs = strides[plan.mode]
        cs = run_stride(strides, shape, comp)
        if forward:
            return (
                (b, row_extent, p),
                (bs * itemsize, rs * itemsize, cs * itemsize),
            )
        return (
            (b, p, row_extent),
            (bs * itemsize, cs * itemsize, rs * itemsize),
        )

    x_extents, x_bstrides = views(x_strides, plan.shape, i_n)
    y_extents, y_bstrides = views(y_strides, plan.out_shape, j)
    x_off = " + ".join(
        f"i{m}*{x_strides[m]}" for m in outer
    ) or "0"
    y_off = " + ".join(
        f"i{m}*{y_strides[m]}" for m in outer
    ) or "0"
    x3 = f"_as_strided(xf[{{off}}:], {x_extents}, {x_bstrides})"
    y3 = f"_as_strided(yf[{{off}}:], {y_extents}, {y_bstrides})"
    return x3, y3, x_off, y_off


def _generic_batched_source(
    plan: TtmPlan,
) -> tuple[list[str], DispatchCounts] | None:
    """Body lines (and their dispatch counts) for the batch-modes shape.

    Applies whenever the plan marks a batchable run and the inner kernel
    is the BLAS fast path: the batched run becomes one literal
    ``np.matmul`` over rank-3 strided views, any outer loop-mode residue
    stays a literal (or parfor-driven) nest.  Unlike
    :func:`_batched_form`'s full-collapse reshapes, this handles partial
    collapses.  None when the plan has no batch run or a non-BLAS kernel.
    """
    if not plan.batch_modes:
        return None
    if plan.kernel_threads > 1 or plan.kernel not in ("blas", "auto"):
        return None
    if not blas_dtype_legal(plan.np_dtype):
        return None
    forward = plan.strategy is Strategy.FORWARD or plan.degree == 0
    x3_t, y3_t, x_off, y_off = _batch_view_exprs(plan)
    call = "np.matmul(u, x3, out=y3)" if forward else "np.matmul(x3, ut, out=y3)"
    indent = "    "
    lines: list[str] = []
    lines.append(f"{indent}xf = x.reshape(-1, order='A')")
    lines.append(f"{indent}yf = y.reshape(-1, order='A')")
    if not forward:
        lines.append(f"{indent}ut = u.T")
    outer = plan.outer_loop_modes
    b = plan.batch_extent
    if not outer:
        lines.append(f"{indent}x3 = " + x3_t.format(off="0"))
        lines.append(f"{indent}y3 = " + y3_t.format(off="0"))
        if plan.loop_threads > 1 and b > 1:
            # No outer nest to split: chunk the batch run over P_L workers.
            n_chunks = min(plan.loop_threads, b)
            chunk = math.ceil(b / n_chunks)
            inner = call.replace("x3", "x3[lo:hi]").replace("y3", "y3[lo:hi]")
            lines.append(f"{indent}def body(_index):")
            lines.append(f"{indent}    lo = _index[0] * {chunk}")
            lines.append(f"{indent}    hi = min(lo + {chunk}, {b})")
            lines.append(f"{indent}    {inner}")
            lines.append(
                f"{indent}parfor(({n_chunks},), body, "
                f"threads={plan.loop_threads})"
            )
            return lines, DispatchCounts(0, n_chunks, b, chunk)
        lines.append(f"{indent}{call}")
        return lines, DispatchCounts(0, 1, b, b)

    body_lines = [
        "x3 = " + x3_t.format(off=x_off),
        "y3 = " + y3_t.format(off=y_off),
        call,
    ]
    loop_vars = {m: f"i{m}" for m in outer}
    if plan.loop_threads > 1:
        var_tuple = ", ".join(loop_vars[m] for m in outer)
        lines.append(f"{indent}def body(_index):")
        if len(outer) > 1:
            lines.append(f"{indent}    {var_tuple} = _index")
        else:
            lines.append(f"{indent}    ({var_tuple},) = _index")
        for bl in body_lines:
            lines.append(f"{indent}    {bl}")
        extents = plan.outer_loop_extents
        lines.append(
            f"{indent}parfor({extents!r}, body, threads={plan.loop_threads})"
        )
    else:
        depth = 0
        for m in outer:
            lines.append(
                f"{indent}{'    ' * depth}for {loop_vars[m]} in "
                f"range({plan.shape[m]}):"
            )
            depth += 1
        for bl in body_lines:
            lines.append(f"{indent}{'    ' * depth}{bl}")
    calls = plan.outer_loop_iterations
    return lines, DispatchCounts(0, calls, calls * b, b)


def generate_source(plan: TtmPlan, function_name: str = "inttm") -> str:
    """Python source of the specialized TTM for *plan*.

    The emitted function has signature ``(x, u, y)`` over raw ndarrays
    (``x``/``y`` in the plan's layout) and returns ``y``.
    """
    return _emit(plan, function_name)[0]


def _emit(plan: TtmPlan, function_name: str) -> tuple[str, DispatchCounts]:
    """The source for *plan* and the dispatch counts its body performs."""
    loop_vars = {m: f"i{m}" for m in plan.loop_modes}
    sub_expr = _index_expr(plan, loop_vars)
    i_n, p, j = plan.i_n, plan.component_extent, plan.j
    forward = plan.strategy is Strategy.FORWARD
    f_order = plan.layout is Layout.COL_MAJOR
    order_kw = ", order='F'" if f_order else ""

    if plan.degree == 0:
        x_shape, y_shape = (i_n, 1), (j, 1)
    elif forward:
        x_shape, y_shape = (i_n, p), (j, p)
    else:
        x_shape, y_shape = (p, i_n), (p, j)

    lines = [
        f"def {function_name}(x, u, y):",
        f'    """{plan.describe()}"""',
    ]
    indent = "    "
    batched = _batched_form(plan)
    if batched is not None:
        batch = plan.loop_iterations
        return (
            "\n".join(lines) + "\n" + batched + f"{indent}return y\n",
            DispatchCounts(0, 1, batch, batch),
        )
    generic = _generic_batched_source(plan)
    if generic is not None:
        body, counts = generic
        return "\n".join(lines + body + [f"{indent}return y"]) + "\n", counts
    if not forward and plan.degree > 0:
        lines.append(f"{indent}ut = u.T")

    body_lines = [
        f"x_sub = x[{sub_expr}].reshape({x_shape}{order_kw})",
        f"y_sub = y[{sub_expr}].reshape({y_shape}{order_kw})",
    ]
    if plan.degree == 0 or forward:
        call = _kernel_call(plan).format(a="u", b="x_sub", c="y_sub")
    else:
        call = _kernel_call(plan).format(a="x_sub", b="ut", c="y_sub")
    body_lines.append(call)

    if plan.loop_threads > 1 and plan.loop_modes:
        # Parallel driver: collapsed index space chunked over P_L threads.
        var_tuple = ", ".join(loop_vars[m] for m in plan.loop_modes)
        lines.append(f"{indent}def body(_index):")
        if len(plan.loop_modes) > 1:
            lines.append(f"{indent}    {var_tuple} = _index")
        else:
            lines.append(f"{indent}    ({var_tuple},) = _index")
        for bl in body_lines:
            lines.append(f"{indent}    {bl}")
        extents = plan.loop_extents
        lines.append(
            f"{indent}parfor({extents!r}, body, threads={plan.loop_threads})"
        )
    else:
        depth = 0
        for m in plan.loop_modes:
            lines.append(
                f"{indent}{'    ' * depth}for {loop_vars[m]} in "
                f"range({plan.shape[m]}):"
            )
            depth += 1
        for bl in body_lines:
            lines.append(f"{indent}{'    ' * depth}{bl}")
    lines.append(f"{indent}return y")
    return "\n".join(lines) + "\n", DispatchCounts(plan.loop_iterations)


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
        "_as_strided": np.lib.stride_tricks.as_strided,
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
