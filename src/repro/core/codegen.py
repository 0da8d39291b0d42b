"""Code generation: emit a specialized Python TTM for one plan (§4.3.2).

The paper generates C++/OpenMP; this reproduction generates Python with
the identical structure — a literal nested loop over the loop modes and
an inner kernel call on reshaped *views* — then compiles it with
``compile()``/``exec``.  The value mirrors the paper's: all plan logic is
resolved at generation time, leaving straight-line code, and the source
is inspectable: ``generate_source`` renders one plan's code with every
loop bound, index expression and reshape extent a literal.

**One template per structure.**  What the code does is fixed by a
plan's structure (:class:`_Structure`: order, mode, layout, strategy,
the ``M_C``/``M_L``/``M_B`` roles, the kernel-call template, whether
``P_L > 1``, the ``P_C`` pool and the body's form), not by its extents.
Each structure compiles once, into a factory (:func:`_template`, a
bounded memo that holds no plan and is the module's only code cache).
:func:`compile_plan` calls the factory with a plan, which binds that
plan's extents (whole tuples), J, dtype, layout, strides and the plan
itself into fresh closures, so a new shape of a known structure compiles
nothing.  The closures belong to the plan instance that asked
(:attr:`repro.core.plan.TtmPlan.compiled`): whoever holds plans holds
their code, and dropping a plan frees it.

The factory makes two functions:

* the kernel ``inttm(x, u, y)`` over raw ndarrays, whose ``__source__``
  is :func:`generate_source`'s rendering, made on first read;
* the plan's checked warm entry ``entry(x, u, out=None)``, in one frame:
  the type, shape, layout, dtype and ``(J, I_n)`` comparisons, the
  dynamic pre-flight (no tracer, no hot counters, and
  :func:`repro.resilience.memory.preflight_source`'s rule), ``np.empty``,
  the kernel body inline, the ``DenseTensor`` wrap, and
  :func:`repro.core.inttm._degrade` when the kernel raises.  When any
  condition fails it returns None and the caller goes on to the
  executor's body (:func:`repro.core.inttm._run_plan`), so every typed
  error, guard, span and counter comes from one place.

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

Each compiled kernel also carries its **dispatch counts**
(:class:`DispatchCounts`), fixed when it is bound: how many 2-D kernel
calls and how many batched matmuls (over how many slices) one call
performs.  The executor reports them to the hot-path counters once per
call, so instrumentation costs nothing per loop iteration.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from repro.core.inttm import _degrade
from repro.core.plan import Strategy, TtmPlan
from repro.gemm.blocked import gemm_blocked
from repro.gemm.interface import blas_dtype_legal, gemm
from repro.obs import counters as _counters, tracer as _tracer
from repro.parallel.parfor import parfor
from repro.perf.blasctl import blas_pinning_available, blas_threads
from repro.resilience.faults import record_degradation
from repro.resilience.memory import (
    PREFLIGHT_GLOBALS,
    plan_footprint_bytes,
    preflight_source,
)
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout

#: Structures whose compiled template :func:`_template` keeps.
TEMPLATES = 128

class DispatchCounts(NamedTuple):
    """Kernel dispatches one call of a compiled plan performs."""

    gemm_calls: int = 0
    batched_calls: int = 0
    batched_slices: int = 0
    max_batch: int = 0

    @property
    def dispatches(self) -> int:
        return self.gemm_calls + self.batched_calls


class _Structure(NamedTuple):
    """Everything a plan's generated code depends on except its extents.

    Plans of one structure share one compiled template; *form* is the
    shape of the body (:func:`_form`).
    """

    order: int
    mode: int
    layout: Layout
    strategy: Strategy
    component_modes: tuple[int, ...]
    loop_modes: tuple[int, ...]
    batch_modes: tuple[int, ...]
    kernel_call: str
    parallel: bool
    pool: int
    form: str

    @property
    def forward(self) -> bool:
        """Rows/cols are (mode, component): forward plans and fiber plans."""
        return self.strategy is Strategy.FORWARD or not self.component_modes

    @property
    def outer_loop_modes(self) -> tuple[int, ...]:
        if not self.batch_modes:
            return self.loop_modes
        return self.loop_modes[: len(self.loop_modes) - len(self.batch_modes)]


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


def _form(plan: TtmPlan) -> str:
    """The body's shape.

    ``"loops"``: one 2-D kernel call per (outer, batch) index (non-BLAS
    kernels, float16, unbatched plans with loops).  On the BLAS path:
    ``"outer"``, one rank-3 matmul per outer index; ``"chunks"``, the
    batch run chunked over ``P_L`` workers when no outer nest is left to
    split; ``"one"``, a single matmul for the whole call.
    """
    if not _blas_path(plan) or (plan.loop_modes and not plan.batch_modes):
        return "loops"
    if plan.outer_loop_modes:
        return "outer"
    if plan.loop_threads > 1 and plan.batch_extent > 1:
        return "chunks"
    return "one"


def _structure(plan: TtmPlan) -> _Structure:
    """The key of *plan*'s compiled template."""
    return _Structure(
        plan.order, plan.mode, plan.layout, plan.strategy,
        plan.component_modes, plan.loop_modes, plan.batch_modes,
        _kernel_call(plan), plan.loop_threads > 1, _pool_threads(plan),
        _form(plan),
    )


def _runs(s: _Structure) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The mode runs the hoisted views merge, in reshape order, and the
    ``transpose`` that orders them as ``(outer..., batch, rows, cols)``.

    Every mode role — each outer loop mode, the batch run, the contracted
    mode and the component run — is a consecutive index run of storage
    that is contiguous in the plan's layout, so one ``reshape`` merges
    each run in place and one ``transpose`` orders the merged axes: a
    copy-free view of the whole operand, built once per call.  Rows/cols
    are (mode, component) for forward plans and fiber plans (an empty
    component run becomes an extent-1 axis), (component, mode) for
    backward ones; an unbatched plan's batch axis has extent 1.
    """
    comp, mode = s.component_modes, (s.mode,)
    roles = [(m,) for m in s.outer_loop_modes] + [s.batch_modes]
    roles += [mode, comp] if s.forward else [comp, mode]
    # Reshape order is index order; an empty run (no batch modes, or a
    # fiber plan's component run) is an extent-1 axis and goes first.
    order = sorted(range(len(roles)), key=lambda k: min(roles[k], default=-1))
    perm = tuple(order.index(k) for k in range(len(roles)))
    return [roles[k] for k in order], perm


def _loops(s: _Structure) -> list[tuple[str, tuple[int, ...]]]:
    """The literal nest: ``(variable, modes it runs over)``, outermost first."""
    loops = [(f"i{m}", (m,)) for m in s.outer_loop_modes]
    if s.form == "loops" and s.batch_modes:
        loops.append(("ib", s.batch_modes))
    return loops


def _chunks(plan: TtmPlan) -> tuple[int, int]:
    """``(chunks, chunk length)`` of a ``"chunks"`` plan's batch run."""
    n_chunks = min(plan.loop_threads, plan.batch_extent)
    return n_chunks, math.ceil(plan.batch_extent / n_chunks)


def _extents(plan: TtmPlan, s: _Structure) -> dict[str, object]:
    """Every per-plan value structure *s*'s code reads, by the name the
    template binds it to (reshape extents as whole tuples)."""
    runs, _ = _runs(s)
    values: dict[str, object] = {
        "xs": tuple(math.prod(plan.shape[m] for m in run) for run in runs),
        "ys": tuple(math.prod(plan.out_shape[m] for m in run) for run in runs),
    }
    extents = []
    for var, modes in _loops(s):
        extent = values["n" + var] = math.prod(plan.shape[m] for m in modes)
        extents.append(extent)
    values["pe"], values["pl"] = tuple(extents), plan.loop_threads
    if s.form == "chunks":
        n_chunks, chunk = _chunks(plan)
        values.update(pc=(n_chunks,), ck=chunk, nb=plan.batch_extent)
    return values


def _counts(plan: TtmPlan, s: _Structure) -> DispatchCounts:
    """The dispatches one call of *plan*'s code performs."""
    if s.form == "loops":
        return DispatchCounts(plan.loop_iterations)
    b = plan.batch_extent
    if s.form == "outer":
        calls = plan.outer_loop_iterations
        return DispatchCounts(0, calls, calls * b, b)
    if s.form == "chunks":
        n_chunks, chunk = _chunks(plan)
        return DispatchCounts(0, n_chunks, b, chunk)
    return DispatchCounts(0, 1, b, b)


def _views(
    s: _Structure, spell: Callable[[str], str], x: str, y: str
) -> tuple[str, str]:
    """The hoisted ``(x3, y3)`` view expressions on ndarrays *x*/*y*."""
    _, perm = _runs(s)
    order_kw = ", order='F'" if s.layout is Layout.COL_MAJOR else ""
    transpose = "" if perm == tuple(range(len(perm))) else f".transpose{perm}"
    return (
        f"{x}.reshape({spell('xs')}{order_kw}){transpose}",
        f"{y}.reshape({spell('ys')}{order_kw}){transpose}",
    )


def _batch_views(plan: TtmPlan) -> tuple[str, str]:
    """*plan*'s ``(x3, y3)`` view expressions, extents literal."""
    s = _structure(plan)
    values = _extents(plan, s)
    return _views(s, lambda name: repr(values[name]), "x", "y")


def _body(s: _Structure, spell: Callable[[str], str], x: str, y: str) -> list[str]:
    """Body lines of structure *s*, unindented, on ndarrays named *x*/*y*.

    *spell* writes each per-plan value (:func:`_extents`): as a literal
    in a rendering, as its bound name in a template.  ``x3``/``y3`` are
    hoisted above any loop (:func:`_runs`).
    """
    x3, y3 = _views(s, spell, x, y)
    lines = [f"x3 = {x3}", f"y3 = {y3}"]
    if not s.forward:
        lines.append("ut = u.T")

    def call(template: str, sub: str) -> str:
        if s.forward:
            return template.format(a="u", b=f"x3{sub}", c=f"y3{sub}")
        return template.format(a=f"x3{sub}", b="ut", c=f"y3{sub}")

    loops = _loops(s)
    if s.form in ("loops", "outer"):
        # An unbatched plan indexes its extent-1 batch axis with 0.
        index = [var for var, _ in loops] + ([] if s.batch_modes else ["0"])
        sub = f"[{', '.join(index)}]"
        lines += _nest(s, spell, loops, [call(s.kernel_call, sub)])
    elif s.form == "chunks":
        lines += [
            "def body(_index):",
            f"    lo = _index[0] * {spell('ck')}",
            f"    hi = min(lo + {spell('ck')}, {spell('nb')})",
            f"    {call(s.kernel_call, '[lo:hi]')}",
            f"parfor({spell('pc')}, body, threads={spell('pl')})",
        ]
    else:
        lines.append(call(s.kernel_call, ""))
    if s.pool > 1:  # everything after the two hoisted views
        lines[2:] = [f"with blas_threads({s.pool}):", *_indent(lines[2:], 1)]
    return lines


def _nest(
    s: _Structure,
    spell: Callable[[str], str],
    loops: list[tuple[str, tuple[int, ...]]],
    body_lines: list[str],
) -> list[str]:
    """*body_lines* under a literal nest over *loops*, or ``parfor`` over
    their collapsed index space at P_L > 1."""
    if s.parallel and loops:
        # Parallel driver: collapsed index space chunked over P_L threads.
        var_tuple = ", ".join(var for var, _ in loops)
        unpack = var_tuple if len(loops) > 1 else f"({var_tuple},)"
        return [
            "def body(_index):",
            f"    {unpack} = _index",
            *_indent(body_lines, 1),
            f"parfor({spell('pe')}, body, threads={spell('pl')})",
        ]
    lines = [
        f"{'    ' * depth}for {var} in range({spell('n' + var)}):"
        for depth, (var, _) in enumerate(loops)
    ]
    return lines + _indent(body_lines, len(loops))


def _indent(lines: list[str], depth: int) -> list[str]:
    return ["    " * depth + line for line in lines]


def _render(plan: TtmPlan, s: _Structure, values: dict, function_name: str) -> str:
    """The literal source of *plan*'s kernel, bound to *values*."""
    body = _body(s, lambda name: repr(values[name]), "x", "y")
    lines = [
        f"def {function_name}(x, u, y):",
        f'    """{plan.describe()}"""',
        *_indent(body, 1),
        "    return y",
    ]
    return "\n".join(lines) + "\n"


def generate_source(plan: TtmPlan, function_name: str = "inttm") -> str:
    """Python source of the specialized TTM for *plan*, extents literal.

    The emitted function has signature ``(x, u, y)`` over raw ndarrays
    (``x``/``y`` in the plan's layout) and returns ``y``.
    """
    s = _structure(plan)
    return _render(plan, s, _extents(plan, s), function_name)


def _template_source(s: _Structure) -> str:
    """The factory ``bind(plan, values) -> (inttm, entry)`` of *s*."""
    used: dict[str, None] = {}

    def spell(name: str) -> str:
        used[name] = None
        return name

    kernel = _body(s, spell, "x", "y")
    inline = _body(s, spell, "data", "y")

    def admits(footprint: str) -> str:
        return (
            "data.shape == shape and x._layout is layout"
            " and data.dtype == dtype and u.shape == u_shape"
            " and u.dtype == dtype and not _tracer._ACTIVE.enabled"
            " and _counters._HOT_COUNTERS is None"
            f" and {preflight_source(footprint, 'x._inmem')}"
        )

    order = "'F'" if s.layout is Layout.COL_MAJOR else "'C'"
    lines = [
        "def bind(plan, values):",
        *[f"    {name} = values[{name!r}]" for name in used],
        "    shape, layout, dtype = plan.shape, plan.layout, plan.np_dtype",
        "    u_shape, out_shape = (plan.j, plan.i_n), plan.out_shape",
        "    out_strides = plan.out_strides",
        "    footprint = plan_footprint_bytes(plan, allocate_out=True)",
        "    footprint_in_place = plan_footprint_bytes(plan, allocate_out=False)",
        "",
        "    def inttm(x, u, y):",
        *_indent(kernel, 2),
        "        return y",
        "",
        "    def entry(x, u, out=None):",
        "        if type(x) is not DenseTensor or type(u) is not ndarray:",
        "            return None",
        "        data = x._data",
        "        if out is None:",
        f"            if not ({admits('footprint')}):",
        "                return None",
        f"            y = empty(out_shape, dtype, {order})",
        "        elif (",
        "            type(out) is DenseTensor and out._layout is layout",
        "            and out._data.shape == out_shape and out._data.dtype == dtype",
        f"            and {admits('footprint_in_place')}",
        "        ):",
        "            y = out._data",
        "        else:",
        "            return None",
        "        try:",
        *_indent(inline, 3),
        "        except Exception as exc:",
        "            _degrade(plan, data, u, y, exc, None, _tracer._ACTIVE)",
        "        if out is not None:",
        "            return out",
        "        # DenseTensor._wrap(y, layout, out_strides, fresh=True)",
        "        t = new(DenseTensor)",
        "        t._data = y",
        "        t._layout = layout",
        "        t._strides = out_strides",
        "        t._inmem = True",
        "        return t",
        "",
        "    return inttm, entry",
    ]
    return "\n".join(lines) + "\n"


_NAMESPACE = {
    "np": np,
    "gemm": gemm,
    "gemm_blocked": gemm_blocked,
    "blas_threads": blas_threads,
    "parfor": parfor,
    "DenseTensor": DenseTensor,
    "ndarray": np.ndarray,
    "empty": np.empty,
    "new": object.__new__,
    "plan_footprint_bytes": plan_footprint_bytes,
    "_tracer": _tracer,
    "_counters": _counters,
    "_degrade": _degrade,
    **PREFLIGHT_GLOBALS,
}


@functools.lru_cache(maxsize=TEMPLATES)
def _template(s: _Structure):
    """Structure *s*'s compiled factory ``bind(plan, values)``."""
    namespace = dict(_NAMESPACE)
    code = compile(
        _template_source(s), f"<inttm:{hash(s) & 0xFFFFFFFF:08x}>", "exec"
    )
    exec(code, namespace)
    return namespace["bind"]


class _Source:
    """A kernel's ``__source__``: its literal source, rendered on first read.

    ``str()`` gives that text, and it compares and tests membership like
    it.  It renders what the kernel was bound with, so it shows the code
    that runs even if the BLAS pool's sizability has changed since.
    """

    __slots__ = ("_render", "_text")

    def __init__(self, render: Callable[[], str]) -> None:
        self._render = render
        self._text = None

    def __str__(self) -> str:
        if self._text is None:
            self._text = self._render()
        return self._text

    def __repr__(self) -> str:
        return repr(str(self))

    def __eq__(self, other) -> bool:
        return str(self) == (str(other) if isinstance(other, _Source) else other)

    def __contains__(self, part: str) -> bool:
        return part in str(self)


def compile_plan(plan: TtmPlan):
    """The specialized TTM kernel for *plan*: its structure's template,
    bound to its extents.

    The returned function takes ``(x_data, u, y_data)`` ndarrays and
    writes through ``y_data``.  Its ``counts`` are the
    :class:`DispatchCounts` of one call, its ``entry`` the plan's checked
    warm entry, and its ``__source__`` the code :func:`generate_source`
    renders, rendered on first read.  Only the first plan of a structure
    compiles anything; each call binds fresh closures, and nothing here
    keeps them: :attr:`TtmPlan.compiled` calls this once per plan
    instance and is their one holder.
    """
    s = _structure(plan)
    if plan.kernel_threads > s.pool:
        record_degradation("kernel_thread_degradations", kernel_threads_degraded=True)
    values = _extents(plan, s)
    fn, entry = _template(s)(plan, values)
    fn.counts = _counts(plan, s)
    fn.entry = entry
    fn.__source__ = _Source(functools.partial(_render, plan, s, values, "inttm"))
    return fn
