"""The resilience layer: fallback chains, supervision, guards, injection.

Every degradation path in ``repro.resilience`` (DESIGN.md §10) is
exercised here through the deterministic fault-injection harness: the
planned kernel dies and the call reruns one tier down; the worker pool dies and is
replaced (or execution goes serial); a worker wedges and the watchdog
fires; the plan-store read flakes and is retried; memory pressure turns
into a typed error or a lower-degree replan.  The invariant under test
throughout: a fault yields either an oracle-correct (degraded) result or
a typed :class:`~repro.util.errors.ReproError` subclass — never a hang,
a bare ``RuntimeError``, or a partially written output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.autotune import CacheStats
from repro.autotune.store import PlanStore
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.intensli import InTensLi
from repro.core.serialize import plan_to_dict
from repro.obs.tracer import tracing
from repro.parallel import parfor
from repro.parallel.parfor import (
    PARFOR_TIMEOUT_ENV,
    default_timeout,
    get_pool,
    shutdown_pools,
)
from repro.perf.profiler import HotCounters, track_hot_path
from repro.serve import ServerStats
from repro.resilience import (
    FALLBACK_CHAIN,
    FaultInjector,
    InjectedFault,
    MEM_LIMIT_ENV,
    active_faults,
    available_bytes,
    fallback_tiers,
    fault_injection,
    guard_memory,
    pinned_budget,
    plan_footprint_bytes,
    recoverable,
)
from repro.core.tiling import TilingPlanner, execute_tiled
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.util.errors import (
    DeadlineError,
    DtypeError,
    KernelExecutionError,
    NumericError,
    ReproError,
    ResourceError,
    ShapeError,
    StoreCorruptError,
    StrideError,
)
from tests.helpers import (
    FACADE_EXECUTORS, facade_ttm, random_ttm_case, ttm_oracle,
)


@pytest.fixture(autouse=True)
def _clean_pools():
    """Pool-poisoning tests must not leak dead executors to other tests."""
    yield
    shutdown_pools()


def _case(shape=(4, 5, 6), j=3, mode=1, seed=0):
    x, u, mode = random_ttm_case(shape, j, mode, seed=seed)
    return x, u, mode, ttm_oracle(x.data, u, mode)


# -- the fault injector itself ------------------------------------------------


def test_arm_rejects_unknown_point_and_bad_counts():
    f = FaultInjector()
    with pytest.raises(ValueError, match="unknown injection point"):
        f.arm("no-such-point")
    with pytest.raises(ValueError):
        f.arm("kernel-raise", times=0)
    with pytest.raises(ValueError):
        f.arm("kernel-raise", after=-1)


def test_rules_fire_by_count_and_context():
    f = FaultInjector().arm(
        "kernel-raise", exc=InjectedFault, times=2, after=1, kernel="blas"
    )
    # Non-matching context never fires (and does not consume the rule).
    assert f.check("kernel-raise", kernel="blocked") is False
    # First matching hit is skipped (after=1), next two fire, then disarmed.
    assert f.check("kernel-raise", kernel="blas") is False
    for _ in range(2):
        with pytest.raises(InjectedFault):
            f.check("kernel-raise", kernel="blas")
    assert f.check("kernel-raise", kernel="blas") is False
    assert f.count("kernel-raise") == 2


def test_excless_rule_returns_true_once():
    f = FaultInjector().arm("alloc-fail")
    assert f.check("alloc-fail") is True
    assert f.check("alloc-fail") is False  # times=1, now exhausted


def test_fault_injection_installs_and_nests():
    assert active_faults() is None
    with fault_injection() as outer:
        assert active_faults() is outer
        with fault_injection() as inner:
            assert active_faults() is inner
        assert active_faults() is outer
    assert active_faults() is None


# -- kernel fallback chain ----------------------------------------------------


def test_fallback_tiers_orderings():
    assert fallback_tiers("blas") == ("blas", "blocked", "reference")
    assert fallback_tiers("blocked") == ("blocked", "reference")
    assert fallback_tiers("reference") == ("reference",)
    assert fallback_tiers("auto") == ("auto", "blocked", "reference")


def test_recoverable_classification():
    assert recoverable(StrideError("general strides"))
    assert recoverable(MemoryError())
    assert recoverable(RuntimeError("BLAS error"))
    assert recoverable(FloatingPointError())
    # Typed repro errors would fail identically in every tier.
    assert not recoverable(ShapeError("bad"))
    assert not recoverable(DtypeError("bad"))
    assert not recoverable(TypeError("programming error"))


def test_chain_degrades_and_result_stays_correct():
    x, u, mode, oracle = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="blas",
                        batched=False)
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("BLAS died"), kernel="blas"
    )
    with fault_injection(faults), track_hot_path() as counters:
        y = ttm_inplace(x, u, plan=plan)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    assert faults.count("kernel-raise") == 1
    assert counters.kernel_fallbacks == 1


def test_degradation_is_sticky_within_one_call():
    # A rule that would kill blas forever fires exactly once: after the
    # first failure the whole call reruns at blocked.
    x, u, mode, oracle = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="blas",
                        batched=False)
    assert len(plan.loop_extents) >= 1 and plan.loop_extents[0] > 1
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("boom"), times=1000, kernel="blas"
    )
    with fault_injection(faults):
        y = ttm_inplace(x, u, plan=plan)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    assert faults.count("kernel-raise") == 1


def test_chain_exhaustion_raises_typed_error():
    x, u, mode, _ = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="blas",
                        batched=False)
    faults = FaultInjector()
    for kernel in FALLBACK_CHAIN:
        faults.arm("kernel-raise", exc=RuntimeError("boom"), times=1000,
                   kernel=kernel)
    with fault_injection(faults), pytest.raises(KernelExecutionError) as info:
        ttm_inplace(x, u, plan=plan)
    assert isinstance(info.value, ReproError)
    assert "reference" in str(info.value)


def test_non_recoverable_errors_pass_through():
    x, u, mode, _ = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="blas",
                        batched=False)
    faults = FaultInjector().arm(
        "kernel-raise", exc=ShapeError("not a kernel's fault"), kernel="blas"
    )
    with fault_injection(faults), pytest.raises(ShapeError):
        ttm_inplace(x, u, plan=plan)


def test_batched_fast_path_degrades():
    x, u, mode, oracle = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="auto",
                        batched=True)
    assert plan.batch_modes  # the fast path is actually in play
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("boom"), batched=True
    )
    with fault_injection(faults), track_hot_path() as counters:
        y = ttm_inplace(x, u, plan=plan)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    assert counters.kernel_fallbacks == 1


def test_accumulate_degradation_never_leaves_partial_sums():
    x, u, mode, oracle = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="blas",
                        batched=False)
    out = DenseTensor(np.ones(oracle.shape))
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("boom"), times=1000, kernel="blas"
    )
    with fault_injection(faults):
        ttm_inplace(x, u, plan=plan, out=out, accumulate=True)
    np.testing.assert_allclose(out.data, 1.0 + oracle, rtol=1e-12)


def test_degradation_annotates_trace_span():
    x, u, mode, oracle = _case()
    plan = default_plan(x.shape, mode, 3, x.layout, kernel="blas",
                        batched=False)
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("boom"), kernel="blas"
    )
    with tracing() as tracer, fault_injection(faults):
        y = ttm_inplace(x, u, plan=plan)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    degraded = [
        s for s in tracer.collector.spans()
        if s.attrs.get("degraded_from") == "blas"
    ]
    assert degraded, "no span carries the degradation attributes"
    assert degraded[0].attrs["degraded_to"] == "blocked"
    assert degraded[0].attrs["degraded_error"] == "RuntimeError"
    assert tracer.counters.kernel_fallbacks == 1


# -- parfor supervision -------------------------------------------------------


def _run_parfor(threads, extents=(12,), timeout=None):
    seen = []
    total = parfor(
        extents, lambda idx: seen.append(idx), threads=threads,
        timeout=timeout,
    )
    return total, seen


def test_watchdog_raises_deadline_error_and_retires_pool():
    faults = FaultInjector().arm("slow-body", delay=2.0, times=4)
    with fault_injection(faults), track_hot_path() as counters:
        before = get_pool(2)
        with pytest.raises(DeadlineError) as info:
            parfor((8,), lambda idx: None, threads=2, timeout=0.05)
    assert isinstance(info.value, ReproError)
    assert isinstance(info.value, TimeoutError)
    assert counters.watchdog_timeouts == 1
    # The suspect pool must never be handed out again.
    assert get_pool(2) is not before


def test_watchdog_off_by_default_and_env_parsing(monkeypatch):
    monkeypatch.delenv(PARFOR_TIMEOUT_ENV, raising=False)
    assert default_timeout() is None
    monkeypatch.setenv(PARFOR_TIMEOUT_ENV, "2.5")
    assert default_timeout() == 2.5
    monkeypatch.setenv(PARFOR_TIMEOUT_ENV, "0")
    assert default_timeout() is None
    monkeypatch.setenv(PARFOR_TIMEOUT_ENV, "not-a-number")
    assert default_timeout() is None


def test_fast_workload_completes_under_watchdog():
    total, seen = _run_parfor(threads=2, extents=(64,), timeout=30.0)
    assert total == 64 and sorted(seen) == [(i,) for i in range(64)]


def test_pool_replacement_on_injected_submit_failure():
    faults = FaultInjector().arm("worker-death", exc=RuntimeError("pool died"))
    with fault_injection(faults), track_hot_path() as counters:
        total, seen = _run_parfor(threads=2, extents=(16,))
    assert total == 16 and len(seen) == 16
    assert counters.pool_replacements == 1
    assert counters.serial_degradations == 0


def test_serial_degradation_when_pools_keep_dying():
    faults = FaultInjector().arm(
        "worker-death", exc=RuntimeError("pool died"), times=2
    )
    with fault_injection(faults), track_hot_path() as counters:
        total, seen = _run_parfor(threads=3, extents=(4, 3))
    assert total == 12 and sorted(seen) == [
        (i, k) for i in range(4) for k in range(3)
    ]
    assert counters.pool_replacements == 2
    assert counters.serial_degradations == 1


def test_submit_after_shutdown_race_recovers():
    # The satellite bug: shutdown_pools tears a pool down after get_pool
    # returned it.  Simulated by shutting the registered pool down
    # directly — the registry still holds it, submit raises RuntimeError.
    pool = get_pool(2)
    pool.shutdown(wait=True)
    with track_hot_path() as counters:
        total, seen = _run_parfor(threads=2, extents=(10,))
    assert total == 10 and len(seen) == 10
    assert counters.pool_replacements == 1
    assert get_pool(2) is not pool


def test_body_exceptions_still_propagate():
    def body(index):
        if index == (3,):
            raise ValueError("body bug")

    with pytest.raises(ValueError, match="body bug"):
        parfor((8,), body, threads=2)


def test_parfor_counts_and_serial_path_ignore_supervision():
    # threads=1 must remain the zero-overhead inline loop even with an
    # injector active (no pool, no watchdog machinery).
    faults = FaultInjector().arm("worker-death", exc=RuntimeError("boom"),
                                 times=1000)
    with fault_injection(faults):
        total, seen = _run_parfor(threads=1, extents=(5,))
    assert total == 5 and len(seen) == 5
    assert faults.count("worker-death") == 0


# -- memory-pressure guard ----------------------------------------------------


def test_footprint_counts_output_and_working_sets():
    plan = default_plan((6, 7, 8), 1, 4, "ROW_MAJOR")
    with_out = plan_footprint_bytes(plan, allocate_out=True)
    without = plan_footprint_bytes(plan, allocate_out=False)
    assert with_out - without == plan.itemsize * 6 * 4 * 8
    assert without >= 0


def test_guard_is_identity_when_memory_suffices(monkeypatch):
    monkeypatch.setenv(MEM_LIMIT_ENV, str(1 << 40))
    plan = default_plan((4, 5, 6), 1, 3, "ROW_MAJOR")
    assert guard_memory(plan) is plan


def test_guard_raises_typed_resource_error(monkeypatch):
    monkeypatch.setenv(MEM_LIMIT_ENV, "1")
    plan = default_plan((6, 7, 8), 1, 4, "ROW_MAJOR")
    with pytest.raises(ResourceError) as info:
        guard_memory(plan)
    assert isinstance(info.value, MemoryError)
    assert isinstance(info.value, ReproError)
    assert "allow_replan" in str(info.value)


def test_ttm_preflight_raises_before_allocation(monkeypatch):
    monkeypatch.setenv(MEM_LIMIT_ENV, "1")
    x, u, mode, _ = _case()
    with pytest.raises(ResourceError):
        ttm_inplace(x, u, mode=mode)


def test_guard_replans_to_lower_degree(monkeypatch):
    x, u, mode, oracle = _case((6, 7, 8), 4, 1)
    plan = default_plan(x.shape, mode, 4, x.layout)
    assert plan.degree >= 1
    floor = default_plan(x.shape, mode, 4, x.layout, kernel="auto", degree=0)
    limit = plan_footprint_bytes(floor, allocate_out=True)
    assert limit < plan_footprint_bytes(plan, allocate_out=True)
    monkeypatch.setenv(MEM_LIMIT_ENV, str(limit))
    with track_hot_path() as counters:
        y = ttm_inplace(x, u, plan=plan, allow_replan=True)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    assert counters.memory_replans == 1


def test_replan_refused_without_opt_in(monkeypatch):
    x, u, mode, _ = _case((6, 7, 8), 4, 1)
    plan = default_plan(x.shape, mode, 4, x.layout)
    floor = default_plan(x.shape, mode, 4, x.layout, kernel="auto", degree=0)
    monkeypatch.setenv(
        MEM_LIMIT_ENV, str(plan_footprint_bytes(floor, allocate_out=True))
    )
    with pytest.raises(ResourceError):
        ttm_inplace(x, u, plan=plan, allow_replan=False)


def test_alloc_fail_injection_forces_pressure():
    x, u, mode, _ = _case()
    faults = FaultInjector().arm("alloc-fail")
    with fault_injection(faults), pytest.raises(ResourceError):
        ttm_inplace(x, u, mode=mode)
    assert faults.count("alloc-fail") == 1


def test_generated_executor_is_guarded_too(monkeypatch):
    monkeypatch.setenv(MEM_LIMIT_ENV, "1")
    x, u, mode, _ = _case()
    engine = InTensLi()
    with pytest.raises(ResourceError):
        engine.ttm(x, u, mode)


# -- plan-store read retries --------------------------------------------------


def _store_with_entries(tmp_path):
    store = PlanStore(str(tmp_path / "plans.json"), fingerprint="fp")
    plan = default_plan((4, 5, 6), 1, 3, "ROW_MAJOR")
    store.save({"k": {"plan": plan_to_dict(plan), "source": "estimator"}})
    return store


def test_store_load_retries_transient_oserror(tmp_path, monkeypatch):
    import repro.autotune.store as store_mod

    monkeypatch.setattr(store_mod, "_RETRY_BASE_SECONDS", 0.0)
    store = _store_with_entries(tmp_path)
    faults = FaultInjector().arm(
        "store-read-error", exc=OSError("transient I/O"), times=2
    )
    with fault_injection(faults), track_hot_path() as counters:
        entries = store.load()
    assert set(entries) == {"k"}
    assert counters.store_retries == 2


def test_store_load_exhausts_retries_into_typed_error(tmp_path, monkeypatch):
    import repro.autotune.store as store_mod

    monkeypatch.setattr(store_mod, "_RETRY_BASE_SECONDS", 0.0)
    store = _store_with_entries(tmp_path)
    faults = FaultInjector().arm(
        "store-read-error", exc=OSError("dead mount"), times=1000
    )
    with fault_injection(faults), pytest.raises(StoreCorruptError):
        with track_hot_path() as counters:
            store.load()
    assert faults.count("store-read-error") == store_mod._RETRY_ATTEMPTS
    assert counters.store_retries == store_mod._RETRY_ATTEMPTS - 1


def test_store_missing_file_returns_empty_without_retry(tmp_path):
    store = PlanStore(str(tmp_path / "absent.json"), fingerprint="fp")
    with track_hot_path() as counters:
        assert store.load() == {}
    assert counters.store_retries == 0


def test_plan_cache_goes_cold_when_store_read_exhausts(tmp_path, monkeypatch):
    # End to end: PlanCache's existing corrupt-store policy (restart
    # cold) composes with the retry loop instead of crashing the caller.
    import repro.autotune.store as store_mod
    from repro.autotune import PlanCache, PlanKey

    monkeypatch.setattr(store_mod, "_RETRY_BASE_SECONDS", 0.0)
    store = _store_with_entries(tmp_path)
    faults = FaultInjector().arm(
        "store-read-error", exc=OSError("dead mount"), times=1000
    )
    with fault_injection(faults):
        cache = PlanCache(path=store.path)
        assert cache.get(PlanKey.make((4, 5, 6), 1, 3, "ROW_MAJOR", 1)) is None


# -- check_finite -------------------------------------------------------------


def test_check_finite_raises_numeric_error_naming_kernel():
    x = DenseTensor(np.full((3, 4, 5), np.nan))
    u = np.ones((2, 4))
    with pytest.raises(NumericError) as info:
        ttm_inplace(x, u, mode=1, check_finite=True)
    assert isinstance(info.value, ArithmeticError)
    assert "kernel" in str(info.value)


def test_check_finite_passes_clean_results_and_is_opt_in():
    x, u, mode, oracle = _case()
    y = repro.ttm(x, u, mode, check_finite=True)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    # Opt-out default: NaNs flow through silently, as before this layer.
    bad = DenseTensor(np.full((3, 4), np.inf))
    out = repro.ttm(bad, np.ones((2, 3)), 0)
    assert not np.isfinite(out.data).all()


def test_check_finite_on_generated_executor():
    engine = InTensLi()
    x = DenseTensor(np.full((3, 4, 5), np.inf))
    with pytest.raises(NumericError):
        engine.ttm(x, np.ones((2, 4)), 1, check_finite=True)


# -- the facade-level acceptance contract -------------------------------------


@pytest.mark.parametrize("executor", FACADE_EXECUTORS[::-1])
def test_facade_survives_kernel_faults(executor):
    # The top-level contract: with a kernel fault injected, InTensLi.ttm
    # still returns the oracle-correct result via a degraded path, in
    # either code shape.
    x, u, mode, oracle = _case()
    engine = InTensLi()
    faults = FaultInjector().arm("kernel-raise", exc=RuntimeError("boom"))
    with fault_injection(faults), track_hot_path() as counters:
        y = facade_ttm(engine, x, u, mode, executor)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    assert faults.count("kernel-raise") == 1
    assert counters.kernel_fallbacks >= 1


def test_facade_degrades_tier_by_tier():
    x, u, mode, oracle = _case()
    engine = InTensLi()
    # Poison the first two tiers: the planned kernel and blocked both
    # die, the reference rerun finishes.
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("boom"), times=2
    )
    with tracing() as tracer, fault_injection(faults):
        y = engine.ttm(x, u, mode)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-12)
    execute = next(
        s for s in tracer.collector.spans() if s.name == "execute"
    )
    # The execute span carries the last step taken.
    assert execute.attrs["degraded_from"] == "blocked"
    assert execute.attrs["degraded_to"] == "reference"
    assert tracer.counters.kernel_fallbacks == 2


def test_facade_faults_raise_only_typed_errors():
    # Non-recoverable injected failures surface as typed ReproErrors,
    # never as a bare RuntimeError from library internals.
    x, u, mode, _ = _case()
    engine = InTensLi()
    faults = FaultInjector().arm(
        "kernel-raise", exc=RuntimeError("boom"), times=10**6
    )
    with fault_injection(faults), pytest.raises(ReproError):
        engine.ttm(x, u, mode)


# -- error taxonomy -----------------------------------------------------------


def test_resilience_errors_are_typed_and_dual_rooted():
    assert issubclass(ResourceError, ReproError)
    assert issubclass(ResourceError, MemoryError)
    assert issubclass(KernelExecutionError, ReproError)
    assert issubclass(KernelExecutionError, RuntimeError)
    assert issubclass(DeadlineError, ReproError)
    assert issubclass(DeadlineError, TimeoutError)
    assert issubclass(NumericError, ReproError)
    assert issubclass(NumericError, ArithmeticError)
    assert issubclass(InjectedFault, RuntimeError)


@pytest.mark.parametrize(
    "vocabulary", [HotCounters, CacheStats, ServerStats],
    ids=lambda cls: cls.__name__,
)
def test_counter_vocabularies_reject_undeclared_names(vocabulary):
    counters = vocabulary()
    for name in vocabulary.names:
        counters.add(name)
        assert getattr(counters, name) == 1
    with pytest.raises(ValueError):
        counters.add("not_a_counter")


# -- out-of-core faults: tile scratch, memmap opens, pinned budgets ----------


def test_tile_scratch_alloc_fail_leaves_output_untouched():
    # execute_tiled pre-flights every tile (plans, scratch sizing, the
    # alloc-fail checkpoint) before writing a byte: a failure at tile k
    # must leave a preallocated output exactly as the caller filled it.
    shape, j, mode = (32, 16, 20), 5, 2
    rng = np.random.default_rng(11)
    x = DenseTensor(rng.standard_normal(shape))
    u = rng.standard_normal((j, shape[mode]))
    base = default_plan(shape, mode, j, x.layout)
    ws = plan_footprint_bytes(base, allocate_out=False)
    tiling = TilingPlanner().plan(base, budget=ws // 2, out_preallocated=True)
    assert tiling.tiled and tiling.n_tiles >= 2
    sentinel = -7.25
    out = DenseTensor(np.full((shape[0], shape[1], j), sentinel))
    with fault_injection() as faults:
        faults.arm(
            "alloc-fail", exc=ResourceError("injected scratch failure"),
            after=1, site="tile-scratch",
        )
        # The site filter keeps the rule away from the ctx-less budget
        # probe: available_bytes() must not trip (or consume) it.
        available_bytes()
        assert faults.fired == []
        with pytest.raises(ResourceError, match="injected scratch"):
            execute_tiled(x, u, tiling, out=out)
        assert faults.fired[0][1]["site"] == "tile-scratch"
    assert np.all(out.data == sentinel)


def test_memmap_open_fault_surfaces_as_resource_error(tmp_path):
    t = open_memmap_tensor(tmp_path / "x.npy", "w+", shape=(4, 5))
    t.data[...] = 1.0
    t.flush()
    with fault_injection() as faults:
        faults.arm(
            "store-read-error", exc=OSError("injected: disk gone"),
            site="memmap-open",
        )
        with pytest.raises(ResourceError, match="injected"):
            open_memmap_tensor(tmp_path / "x.npy", "r")
    # The rule is scoped to the injection block; the same open succeeds
    # afterwards and the stored bytes were never corrupted.
    again = open_memmap_tensor(tmp_path / "x.npy", "r")
    assert again.shape == (4, 5) and float(again.data[0, 0]) == 1.0


def test_pinned_budget_snapshots_env_and_nests(monkeypatch):
    monkeypatch.setenv(MEM_LIMIT_ENV, "1000")
    with pinned_budget() as pinned:
        assert pinned == 1000
        # A mid-region env flip is invisible: the pin serves the
        # snapshot so multi-step decisions agree with each other.
        monkeypatch.setenv(MEM_LIMIT_ENV, "1")
        assert available_bytes() == 1000
        with pinned_budget(5000):
            assert available_bytes() == 5000  # innermost pin wins
        assert available_bytes() == 1000
    # Outside the region the default re-read-per-call policy resumes.
    assert available_bytes() == 1


def test_alloc_fail_overrides_pinned_budget():
    # Determinism of the fault harness beats snapshot coherence: an
    # armed alloc-fail forces 0 even inside a generous pin.
    with fault_injection() as faults:
        faults.arm("alloc-fail", times=1000)
        with pinned_budget(1 << 30):
            assert available_bytes() == 0
    with pinned_budget(1 << 30):
        assert available_bytes() == 1 << 30


# -- fuzz: faults never change answers, only speed ---------------------------


@settings(max_examples=20, deadline=None)
@given(
    case=st.sampled_from([
        ((4, 5, 6), 3, 1),
        ((3, 4, 5), 2, 0),
        ((2, 3, 4, 5), 7, 2),
        ((5, 6), 4, 1),
    ]),
    poison=st.sets(st.sampled_from(["blas", "blocked"]), max_size=2),
    batched=st.booleans(),
    after=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=5),
)
def test_fuzz_degraded_results_match_oracle(case, poison, batched, after,
                                            seed):
    shape, j, mode = case
    x, u, mode = random_ttm_case(shape, j, mode, seed=seed)
    oracle = ttm_oracle(x.data, u, mode)
    plan = default_plan(x.shape, mode, j, x.layout, kernel="blas",
                        batched=batched)
    faults = FaultInjector()
    for kernel in poison:
        faults.arm("kernel-raise", exc=RuntimeError("fuzz"), times=1000,
                   after=after, kernel=kernel)
    if batched:
        faults.arm("kernel-raise", exc=RuntimeError("fuzz"), after=after,
                   batched=True)
    with fault_injection(faults):
        y = ttm_inplace(x, u, plan=plan)
    np.testing.assert_allclose(y.data, oracle, rtol=1e-10, atol=1e-12)
