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

Run with ``REPRO_MEM_LIMIT`` set (as the fault-injection CI job does)
they exercise the forced, probing branch of the same pre-flight.
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

import repro
from repro.autotune import PlanCache
from repro.core.intensli import InTensLi, default_intensli
from repro.core.inttm import ttm_inplace
from repro.obs import tracing
from repro.perf.profiler import track_hot_path
from repro.resilience import FaultInjector, fault_injection
from repro.resilience.memory import MEM_LIMIT_ENV, plan_footprint_bytes
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR
from repro.testing import DTYPE_TOLERANCES, ttm_reference
from repro.util.errors import ResourceError

#: The two warm calls the front-end budget is pinned on:
#: (shape, mode, J, dtype, layout).
BUDGET_CASES = (
    ((16, 16, 16), 1, 8, "float64", ROW_MAJOR),
    ((12, 10, 8, 6), 2, 4, "float32", COL_MAJOR),
)

#: Calls into ``repro`` code one warm ``repro.ttm``, ``InTensLi.execute``
#: or ``ttm_inplace`` may make.
CALL_BUDGET = 20

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


def _repro_calls(call) -> int:
    """Calls into functions defined under the ``repro`` package."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(
            PACKAGE_DIR
        ):
            calls += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


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
    """``InTensLi.execute`` (every served request) and ``ttm_inplace``
    into a preallocated output (every chain step) run the same body."""
    monkeypatch.delenv(MEM_LIMIT_ENV, raising=False)
    x, u = _operands(shape, mode, j, dtype, layout)
    lib = InTensLi()
    plan = lib.plan(shape, mode, j, layout, dtype=dtype)
    out = DenseTensor.empty(plan.out_shape, plan.layout, dtype=dtype)
    calls = {
        "execute": lambda: lib.execute(plan, x, u),
        "ttm_inplace": lambda: ttm_inplace(x, u, plan=plan, out=out),
    }
    for name, call in calls.items():
        call()
        assert 0 < _repro_calls(call) <= CALL_BUDGET, name


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
