"""The warm ``repro.ttm`` fast path keeps every guard of a cold call.

A warm call reads its plan straight from the cache and pre-flights
once: when the input is in memory, nothing forces a probe (no armed
fault, no ``$REPRO_MEM_LIMIT``) and the footprint is below
``PREFLIGHT_MIN_BYTES``, it skips the tiling check and the memory guard,
which would both admit the plan unchanged.  These tests pin that the
skip is exact: the budget is still re-read on every call, armed faults
still fire, tracing still sees every span and counter, and the front
end stays within a fixed budget of calls into the package.  A kernel
that raises on the untraced, uninjected warm path still degrades exactly
as a cold call does.

The warm call into a fresh output is the plan's checked entry,
``plan.compiled.call``: it is taken on the whole case grid, and it
declines (handing the call to ``_run_plan``) under every condition that
could make the call do more than run its kernel.

Run with ``REPRO_MEM_LIMIT`` set (as the fault-injection CI job does)
they exercise the forced, probing branch of the same pre-flight.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from contextlib import contextmanager

import numpy as np
import pytest

import repro
from repro.autotune import PlanCache
from repro.core import inttm
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.intensli import InTensLi, default_intensli
from repro.obs import tracing
from repro.perf.profiler import install_hot_counters, track_hot_path
from repro.resilience import FaultInjector, fault_injection, memory
from repro.resilience.memory import MEM_LIMIT_ENV, plan_footprint_bytes
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import (
    DEFAULT_CASES,
    DEGENERATE_CASES,
    DTYPE_TOLERANCES,
    ttm_reference,
)
from repro.util.errors import ReproError, ResourceError

#: The two warm calls the front-end budget is pinned on:
#: (shape, mode, J, dtype, layout).
BUDGET_CASES = (
    ((16, 16, 16), 1, 8, "float64", ROW_MAJOR),
    ((12, 10, 8, 6), 2, 4, "float32", COL_MAJOR),
)

#: Calls into ``repro`` code one warm ``repro.ttm``, ``InTensLi.execute``
#: or ``ttm_inplace(plan=)`` into a fresh output may make.  The plan's
#: generated entry is not code under the package directory, so a warm
#: ``repro.ttm`` counts 2 (``repro.ttm``, ``InTensLi.ttm``) of its three
#: frames.
CALL_BUDGET = 2

#: The same, for ``InTensLi.execute`` or ``ttm_inplace`` into a
#: preallocated output (every chain step): the call, then the entry.
OUT_CALL_BUDGET = 1

#: The same, for ``ttm_inplace(x, u, mode)``: its memoized plan (a C
#: cache hit), then the entry.
MODE_CALL_BUDGET = 1

#: Counters a warm call must report exactly like a cold one.
DISPATCH_COUNTERS = ("gemm_calls", "batched_calls", "batched_slices")
TILING_COUNTERS = ("tiled_ttms", "tiles_executed", "memory_replans")

PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep


def _operands(shape, mode, j, dtype="float64", layout=ROW_MAJOR, seed=0):
    rng = np.random.default_rng(seed)
    x = DenseTensor(rng.standard_normal(shape), layout, dtype=dtype)
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    return x, u


def _outcome(call, counters=TILING_COUNTERS + DISPATCH_COUNTERS):
    """What *call* did: its error or result, and the named counters."""
    with track_hot_path() as tally:
        try:
            result = ("ok", call().data.copy())
        except ResourceError as exc:
            result = ("error", str(exc))
    return result, {name: getattr(tally, name) for name in counters}


def _same(warm, cold):
    (w_kind, w_val), w_counts = warm
    (c_kind, c_val), c_counts = cold
    assert (w_kind, w_counts) == (c_kind, c_counts)
    if w_kind == "ok":
        np.testing.assert_array_equal(w_val, c_val)
    else:
        assert w_val == c_val


def _entered(call) -> list:
    """The code object of every Python-level function *call* entered."""
    codes = []

    def profile(frame, event, arg):
        if event == "call":
            codes.append(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return codes


def _repro_calls(call) -> int:
    """Calls into functions defined under the ``repro`` package."""
    return sum(
        code.co_filename.startswith(PACKAGE_DIR) for code in _entered(call)
    )


# -- the budget is re-read on every warm call ---------------------------------


@pytest.mark.parametrize("fraction", [0.5, 0.0])
def test_env_cap_set_between_warm_calls_acts_like_a_cold_call(
    monkeypatch, fraction
):
    """Half the footprint tiles; a zero budget refuses — warm or cold."""
    shape, mode, j = (16, 16, 16), 1, 8
    x, u = _operands(shape, mode, j)
    plan = default_intensli().plan(shape, mode, j, x.layout)
    out = DenseTensor.empty(plan.out_shape, plan.layout)

    def warm_call():
        return repro.ttm(x, u, mode, out=out)

    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    first, _ = _outcome(warm_call)
    assert first[0] == "ok"
    need = plan_footprint_bytes(plan, allocate_out=False)
    monkeypatch.setenv(MEM_LIMIT_ENV, str(int(need * fraction)))
    warm = _outcome(warm_call)
    cold = _outcome(lambda: InTensLi().ttm(x, u, mode, out=out))
    _same(warm, cold)
    if fraction:
        assert warm[1]["tiled_ttms"] == 1 and warm[1]["tiles_executed"] > 1
        np.testing.assert_allclose(
            warm[0][1], ttm_reference(x.data, u, mode), rtol=1e-10, atol=1e-12
        )
    else:
        assert warm[0][0] == "error"
    monkeypatch.delenv(MEM_LIMIT_ENV)
    again, counts = _outcome(warm_call)
    assert again[0] == "ok" and counts["tiled_ttms"] == 0


# -- armed faults still fire on a warm call -----------------------------------


@pytest.mark.parametrize("times", [1, 2])
def test_armed_alloc_fail_on_a_warm_call_acts_like_a_cold_call(times):
    x, u = _operands((6, 7, 8), 1, 4)
    warm_lib = InTensLi()
    warm_lib.ttm(x, u, 1)
    runs = {}
    for name, lib in (("warm", warm_lib), ("cold", InTensLi())):
        faults = FaultInjector().arm("alloc-fail", times=times)
        with fault_injection(faults):
            runs[name] = _outcome(lambda: lib.ttm(x, u, 1))
        runs[name] += (faults.count("alloc-fail"),)
    assert runs["warm"][2] == runs["cold"][2] >= 1
    _same(runs["warm"][:2], runs["cold"][:2])
    if times == 2:
        # Both probes see zero bytes: nothing can tile and the guard refuses.
        assert runs["warm"][0][0] == "error"


# -- tracing sees a warm call whole -------------------------------------------


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_traced_warm_call_emits_every_span_and_counter(
    shape, mode, j, dtype, layout
):
    x, u = _operands(shape, mode, j, dtype, layout)
    lib = InTensLi()
    with tracing() as tracer:
        lib.ttm(x, u, mode)
    cold = tracer.snapshot()
    with tracing() as tracer:
        y = lib.ttm(x, u, mode)
    warm = tracer.snapshot()
    names = {span["name"] for span in warm["spans"]}
    assert {"ttm", "plan", "execute", "gemm-kernel"} <= names
    assert "partition" not in names  # the warm plan came from the cache
    for name in DISPATCH_COUNTERS:
        assert warm["counters"][name] == cold["counters"][name], name
    rtol, atol = DTYPE_TOLERANCES[dtype]
    np.testing.assert_allclose(
        y.data, ttm_reference(x.data, u, mode), rtol=rtol, atol=atol
    )


# -- the front-end call budget ------------------------------------------------


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_warm_call_stays_within_the_front_end_call_budget(
    monkeypatch, shape, mode, j, dtype, layout
):
    """Deterministic stand-in for the front end's per-call overhead."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    x, u = _operands(shape, mode, j, dtype, layout)
    repro.ttm(x, u, mode)
    calls = _repro_calls(lambda: repro.ttm(x, u, mode))
    assert 0 < calls <= CALL_BUDGET


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_budget_holds_with_a_store_backed_cache_attached(
    monkeypatch, tmp_path, shape, mode, j, dtype, layout
):
    """The attached cache is read on the same lock-free warm path."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    lib = InTensLi()
    lib.attach_plan_cache(PlanCache(path=str(tmp_path / "plans.json")))
    x, u = _operands(shape, mode, j, dtype, layout)
    lib.ttm(x, u, mode)
    calls = _repro_calls(lambda: lib.ttm(x, u, mode))
    assert 0 < calls <= CALL_BUDGET


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_served_and_chain_steps_stay_within_the_call_budget(
    monkeypatch, shape, mode, j, dtype, layout
):
    """``InTensLi.execute`` (every served request), ``ttm_inplace``
    into a preallocated output (every chain step) and ``ttm_inplace``
    given only a mode (the standalone planner's memo) run the same body."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    x, u = _operands(shape, mode, j, dtype, layout)
    lib = InTensLi()
    plan = lib.plan(shape, mode, j, layout, dtype=dtype)
    out = DenseTensor.empty(plan.out_shape, plan.layout, dtype=dtype)
    calls = {
        "execute": (lambda: lib.execute(plan, x, u), CALL_BUDGET),
        "ttm_inplace(plan=)": (lambda: ttm_inplace(x, u, plan=plan),
                               CALL_BUDGET),
        "execute(out=)": (lambda: lib.execute(plan, x, u, out=out),
                          OUT_CALL_BUDGET),
        "ttm_inplace(out=)": (lambda: ttm_inplace(x, u, plan=plan, out=out),
                              OUT_CALL_BUDGET),
        "ttm_inplace(mode=)": (lambda: ttm_inplace(x, u, mode),
                               MODE_CALL_BUDGET),
    }
    for name, (call, budget) in calls.items():
        call()
        assert 0 < _repro_calls(call) <= budget, name


# -- a kernel failure on the warm path degrades like a cold one ---------------


def _raising_once(fn, exc):
    """*fn*, except that its first call raises *exc*."""
    state = {"raised": False}

    def kernel(x, u, y):
        if not state["raised"]:
            state["raised"] = True
            raise exc
        return fn(x, u, y)

    return kernel


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_warm_kernel_error_degrades_like_a_cold_call(
    monkeypatch, shape, mode, j, dtype, layout
):
    """No injector, no tracer: the warm path's own ``try`` catches it."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    x, u = _operands(shape, mode, j, dtype, layout)
    counters = ("kernel_fallbacks",) + DISPATCH_COUNTERS
    repro.ttm(x, u, mode)
    plan = default_intensli().plan(shape, mode, j, layout, dtype=dtype)
    record = plan.compiled
    monkeypatch.setitem(
        vars(plan), "compiled",
        record._replace(fn=_raising_once(record.fn, MemoryError("no room"))),
    )
    warm = _outcome(lambda: repro.ttm(x, u, mode), counters)
    faults = FaultInjector().arm("kernel-raise", exc=MemoryError("no room"))
    with fault_injection(faults):
        cold = _outcome(lambda: InTensLi().ttm(x, u, mode), counters)
    assert faults.count("kernel-raise") == 1
    assert warm[1]["kernel_fallbacks"] == 1
    _same(warm, cold)
    rtol, atol = DTYPE_TOLERANCES[dtype]
    np.testing.assert_allclose(
        warm[0][1], ttm_reference(x.data, u, mode), rtol=rtol, atol=atol
    )


def test_warm_non_recoverable_kernel_error_propagates_unchanged(monkeypatch):
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    shape, mode, j = (6, 7, 8), 1, 4
    x, u = _operands(shape, mode, j)
    repro.ttm(x, u, mode)
    plan = default_intensli().plan(shape, mode, j, x.layout)
    error = TypeError("not a kernel problem")
    record = plan.compiled
    monkeypatch.setitem(
        vars(plan), "compiled",
        record._replace(fn=_raising_once(record.fn, error)),
    )
    with track_hot_path() as tally, pytest.raises(TypeError) as info:
        repro.ttm(x, u, mode)
    assert info.value is error
    assert tally.kernel_fallbacks == 0


# -- the checked warm entry ---------------------------------------------------


def _is_entry(code) -> bool:
    """True for the code of a generated warm entry (of any structure)."""
    return code.co_name == "entry" and code.co_filename.startswith("<inttm:")


def _entry_outputs(call):
    """*call*'s outcome, and how many outputs a plan's warm entry returned.

    The outcome is ``("ok", array)`` or ``("error", type, message)``.
    """
    taken = 0

    def profile(frame, event, arg):
        nonlocal taken
        if event == "return" and _is_entry(frame.f_code) and arg is not None:
            taken += 1

    sys.setprofile(profile)
    try:
        result = ("ok", call().data.copy())
    except (ReproError, TypeError) as exc:
        result = ("error", type(exc), str(exc))
    finally:
        sys.setprofile(None)
    return result, taken


def _ran_tiers(call) -> bool:
    """True when *call* ran its kernel through the executor's body."""
    return inttm._run_tiers.__code__ in _entered(call)


def _declining(plan):
    """A copy of *plan* whose warm entry always declines: the cold body."""
    cold = dataclasses.replace(plan)
    vars(cold)["compiled"] = plan.compiled._replace(
        call=lambda x, u, out=None: None
    )
    return cold


class _SubArray(np.ndarray):
    pass


#: Each condition under which the warm entry must decline, as a function
#: of (x, u, mode, plan, tmp_path) returning the call's operands and
#: keyword arguments, plus the context it runs in.
FALLBACKS = {
    "memmapped x": lambda x, u, m, p, tmp: (
        (_memmapped(x, tmp), u, m), {}, None),
    "armed injector": lambda x, u, m, p, tmp: ((x, u, m), {}, "faults"),
    "active tracer": lambda x, u, m, p, tmp: ((x, u, m), {}, "tracing"),
    "hot counters": lambda x, u, m, p, tmp: ((x, u, m), {}, "counters"),
    "mem limit": lambda x, u, m, p, tmp: ((x, u, m), {}, "mem-limit"),
    "byte-swapped u": lambda x, u, m, p, tmp: (
        (x, u.astype(u.dtype.newbyteorder()), m), {}, None),
    "ndarray subclass u": lambda x, u, m, p, tmp: (
        (x, u.view(_SubArray), m), {}, None),
    "wrong I_n": lambda x, u, m, p, tmp: (
        (x, np.ones((u.shape[0], u.shape[1] + 1), u.dtype), m), {}, None),
    "transpose_u": lambda x, u, m, p, tmp: (
        (x, np.ascontiguousarray(u.T), m), {"transpose_u": True}, None),
    "check_finite": lambda x, u, m, p, tmp: (
        (x, u, m), {"check_finite": True}, None),
    "out=": lambda x, u, m, p, tmp: (
        (x, u, m),
        {"out": DenseTensor.empty(p.out_shape, p.layout, dtype=p.dtype)},
        None),
    "out of another shape": lambda x, u, m, p, tmp: (
        (x, u, m),
        {"out": DenseTensor.empty(p.out_shape[:-1] + (p.out_shape[-1] + 1,),
                                  p.layout, dtype=p.dtype)},
        None),
    "out of another dtype": lambda x, u, m, p, tmp: (
        (x, u, m),
        {"out": DenseTensor.empty(
            p.out_shape, p.layout,
            dtype="float32" if p.dtype == "float64" else "float64")},
        None),
    "bool mode": lambda x, u, m, p, tmp: ((x, u, True), {}, None),
    "x of another shape": lambda x, u, m, p, tmp: (
        (DenseTensor(x.data[..., :-1], x.layout), u, m), {}, None),
    "x in the other layout": lambda x, u, m, p, tmp: (
        (DenseTensor(x.data, COL_MAJOR if x.layout is ROW_MAJOR else ROW_MAJOR),
         u, m), {}, None),
}

#: ``InTensLi.ttm``'s conditions: ``x`` of another signature has a plan
#: of its own there.
TTM_FALLBACKS = tuple(c for c in FALLBACKS if not c.startswith("x "))

#: Conditions that exist for every entry point (not only ``ttm``'s
#: keyword arguments and mode).
OPERAND_FALLBACKS = (
    "memmapped x", "armed injector", "active tracer", "hot counters",
    "mem limit", "byte-swapped u", "ndarray subclass u", "wrong I_n",
    "x of another shape", "x in the other layout", "out=",
    "out of another shape", "out of another dtype",
)

#: ``InTensLi.ttm`` turns these operands into ones the plan takes as they
#: are (a native-order ndarray, ``u.T``) before the executor's body, so
#: the entry may then run them; what must match a cold call is the
#: outcome and the counters.
NORMALIZED_BY_TTM = ("byte-swapped u", "ndarray subclass u", "transpose_u")

#: A preallocated output of the plan's shape, layout and dtype is one the
#: entry writes through itself, from every entry point; the outcome and
#: the counters must still match a cold call's.
TAKEN_WITH_OUT = "out="


def _memmapped(x, tmp):
    mm = open_memmap_tensor(
        str(tmp / "x.npy"), "w+", shape=x.shape, dtype=x.data.dtype,
        layout=x.layout,
    )
    mm.data[...] = x.data
    return mm


@contextmanager
def _context(name, monkeypatch):
    """The named state a warm entry must decline under."""
    if name == "faults":
        faults = FaultInjector().arm(
            "kernel-raise", exc=MemoryError("no room")
        )
        with fault_injection(faults):
            yield
    elif name == "tracing":
        # Tracing installs hot counters, which alone make the entry
        # decline; drop them so the tracer check is what is observed.
        with tracing():
            previous = install_hot_counters(None)
            try:
                yield
            finally:
                install_hot_counters(previous)
    elif name == "mem-limit":
        monkeypatch.setenv(MEM_LIMIT_ENV, str(1 << 40))
        try:
            yield
        finally:
            monkeypatch.delenv(MEM_LIMIT_ENV)
    elif name == "counters":
        with track_hot_path():
            yield
    else:
        yield


def _under(context, monkeypatch, call):
    """*call*'s outcome and entry count in *context*, and its counters."""
    with _context(context, monkeypatch):
        seen = _entry_outputs(call)
    with _context(context, monkeypatch):
        counts = _counted(call)[1]
    return seen, counts


def _counted(call):
    with track_hot_path() as tally:
        result = _entry_outputs(call)
    return result, {
        name: getattr(tally, name)
        for name in TILING_COUNTERS + DISPATCH_COUNTERS + ("kernel_fallbacks",)
    }


def _same_outcome(warm, cold, dtype, declined=True):
    (w_result, w_taken), w_counts = warm
    (c_result, _), c_counts = cold
    if declined:
        assert w_taken == 0, "the warm entry ran the call"
    assert w_counts == c_counts
    assert w_result[0] == c_result[0]
    if w_result[0] == "ok":
        rtol, atol = DTYPE_TOLERANCES[dtype]
        np.testing.assert_allclose(
            w_result[1], c_result[1], rtol=rtol, atol=atol
        )
    else:
        assert w_result[1:] == c_result[1:]


def _entry_point_calls(via, lib, plan, args, kwargs):
    """The named entry point on (x, u, mode) *args*, for *lib* and *plan*."""
    x, u, mode = args
    if via == "ttm":
        return lambda: lib.ttm(x, u, mode, **kwargs)
    if via == "execute":
        return lambda: lib.execute(plan, x, u, **kwargs)
    return lambda: ttm_inplace(x, u, plan=plan, **kwargs)


@pytest.mark.parametrize(
    "condition, via",
    [(c, "ttm") for c in TTM_FALLBACKS]
    + [(c, v) for c in OPERAND_FALLBACKS for v in ("execute", "ttm_inplace")],
)
def test_warm_entry_declines_and_the_call_acts_like_a_cold_one(
    monkeypatch, tmp_path, condition, via
):
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    shape, mode, j, dtype, layout = BUDGET_CASES[0]
    x, u = _operands(shape, mode, j, dtype, layout)
    warm_lib = InTensLi()
    warm_lib.ttm(x, u, mode)
    plan = warm_lib.plan(shape, mode, j, layout, dtype=dtype)
    args, kwargs, context = FALLBACKS[condition](x, u, mode, plan, tmp_path)
    warm = _under(context, monkeypatch, _entry_point_calls(
        via, warm_lib, plan, args, kwargs))
    # The cold call is the executor's body alone: the same plan, cached
    # by a fresh facade, with an entry that always declines.
    cold_plan = _declining(plan)
    cold_lib = InTensLi()
    cold_lib.plan_cache.keep(cold_plan, cold_lib.max_threads)
    args, kwargs, context = FALLBACKS[condition](x, u, mode, plan, tmp_path)
    cold = _under(context, monkeypatch, _entry_point_calls(
        via, cold_lib, cold_plan, args, kwargs))
    _same_outcome(
        warm, cold, dtype,
        declined=not (
            condition == TAKEN_WITH_OUT
            or (via == "ttm" and condition in NORMALIZED_BY_TTM)
        ),
    )


@pytest.mark.parametrize("via", ["ttm", "execute", "ttm_inplace"])
def test_warm_entry_writes_through_a_preallocated_out(monkeypatch, via):
    """Every chain step and ``out=`` call is one checked call too."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    shape, mode, j, dtype, layout = BUDGET_CASES[0]
    x, u = _operands(shape, mode, j, dtype, layout)
    lib = InTensLi()
    lib.ttm(x, u, mode)
    plan = lib.plan(shape, mode, j, layout, dtype=dtype)
    out = DenseTensor.empty(plan.out_shape, plan.layout, dtype=dtype)
    call = _entry_point_calls(via, lib, plan, (x, u, mode), {"out": out})
    result, taken = _entry_outputs(call)
    assert taken == 1 and call() is out
    rtol, atol = DTYPE_TOLERANCES[dtype]
    np.testing.assert_allclose(
        result[1], ttm_reference(x.data, u, mode), rtol=rtol, atol=atol
    )


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_active_counters_still_count_a_warm_hit(
    monkeypatch, shape, mode, j, dtype, layout
):
    """Counters make the entry decline, so a hit counts as it always did."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    x, u = _operands(shape, mode, j, dtype, layout)
    lib = InTensLi()
    lib.ttm(x, u, mode)
    counts = lib.plan(shape, mode, j, layout, dtype=dtype).compiled.counts
    with track_hot_path() as tally:
        lib.ttm(x, u, mode)
    assert (tally.plan_cache_hits, tally.plan_cache_misses) == (1, 0)
    for name in DISPATCH_COUNTERS:
        assert getattr(tally, name) == getattr(counts, name), name


def test_a_footprint_at_the_preflight_floor_declines_the_entry(monkeypatch):
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    shape, mode, j, dtype, layout = BUDGET_CASES[0]
    x, u = _operands(shape, mode, j, dtype, layout)
    lib = InTensLi()
    lib.ttm(x, u, mode)
    plan = lib.plan(shape, mode, j, layout, dtype=dtype)
    cold_lib = InTensLi()
    cold_lib.plan_cache.keep(_declining(plan), cold_lib.max_threads)
    cold = _counted(lambda: cold_lib.ttm(x, u, mode))
    monkeypatch.setattr(memory, "PREFLIGHT_MIN_BYTES", plan.compiled.footprint)
    assert _ran_tiers(lambda: lib.ttm(x, u, mode))
    warm = _entry_outputs(lambda: lib.ttm(x, u, mode))
    _same_outcome((warm, cold[1]), cold, dtype)
    _same_outcome(_counted(lambda: lib.ttm(x, u, mode)), cold, dtype)


@pytest.mark.parametrize("dtype", ["float64", "float32", "float16"])
@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR])
def test_warm_entry_is_taken_on_the_case_grid(monkeypatch, dtype, layout):
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    lib = InTensLi()
    rtol, atol = DTYPE_TOLERANCES[dtype]
    for shape, j, mode in DEFAULT_CASES + DEGENERATE_CASES:
        x, u = _operands(shape, mode, j, dtype, layout)
        lib.ttm(x, u, mode)
        plan = lib.plan(shape, mode, j, layout, dtype=dtype)
        expected = ttm_reference(x.data, u, mode)
        for via in ("ttm", "execute", "ttm_inplace"):
            call = _entry_point_calls(via, lib, plan, (x, u, mode), {})
            assert not _ran_tiers(call), (shape, mode, via)
            (kind, y), taken = _entry_outputs(call)
            assert (kind, taken) == ("ok", 1), (shape, mode, via)
            assert y.dtype == np.dtype(dtype)
            np.testing.assert_allclose(y, expected, rtol=rtol, atol=atol)
            z = call()
            assert z.layout is layout and z.is_inmem
            assert z.strides == plan.out_strides


def _entry_raising_once(plan, exc):
    """*plan*'s warm entry, on an input whose first kernel view raises.

    The entry runs the kernel body inline, so the body's first step (a
    ``reshape`` of the input's data) is what raises *exc*, once.
    """
    entry = plan.compiled.call
    state = {"raised": False}

    class RaisingOnce(np.ndarray):
        def reshape(self, *args, **kwargs):
            if not state["raised"]:
                state["raised"] = True
                raise exc
            return super().reshape(*args, **kwargs)

    def call(x, u):
        data = x.data.view(RaisingOnce)
        return entry(DenseTensor._wrap(data, x.layout, fresh=True), u)

    return call


def _degradations(monkeypatch) -> list:
    """Every degradation the executor reports from now on, by counter."""
    seen = []
    monkeypatch.setattr(
        inttm, "record_degradation",
        lambda counter, **attrs: seen.append(counter),
    )
    return seen


@pytest.mark.parametrize("shape, mode, j, dtype, layout", BUDGET_CASES)
def test_warm_entry_degrades_a_recoverable_kernel_error(
    monkeypatch, shape, mode, j, dtype, layout
):
    """No counters, tracer or injector: the entry's own ``try`` catches it."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    x, u = _operands(shape, mode, j, dtype, layout)
    plan = default_plan(shape, mode, j, layout, dtype=dtype)
    call = _entry_raising_once(plan, MemoryError("no room"))
    seen = _degradations(monkeypatch)
    y = call(x, u)
    assert seen == ["kernel_fallbacks"]
    assert y.layout is layout and y.strides == plan.out_strides
    rtol, atol = DTYPE_TOLERANCES[dtype]
    np.testing.assert_allclose(
        y.data, ttm_reference(x.data, u, mode), rtol=rtol, atol=atol
    )


def test_warm_entry_passes_a_non_recoverable_kernel_error_through(
    monkeypatch,
):
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    shape, mode, j = (6, 7, 8), 1, 4
    x, u = _operands(shape, mode, j)
    error = TypeError("not a kernel problem")
    call = _entry_raising_once(default_plan(shape, mode, j, x.layout), error)
    seen = _degradations(monkeypatch)
    with pytest.raises(TypeError) as info:
        call(x, u)
    assert info.value is error
    assert seen == []
