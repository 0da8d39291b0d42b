"""Tests for thread allocation (the PTH rule) and the parfor substrate."""

import sys
import threading

import numpy as np
import pytest

import repro
from repro.core.codegen import compile_plan
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.threads import (
    DEFAULT_PTH_BYTES,
    ThreadAllocation,
    allocate_threads,
)
from repro.parallel import iter_index_space, parfor
from repro.parallel.parfor import PARFOR_TIMEOUT_ENV
from repro.perf import blasctl, track_hot_path
from repro.tensor.layout import ROW_MAJOR
from repro.testing import ttm_reference
from repro.util.errors import PlanError


class TestThreadAllocation:
    def test_default_pth_is_800kb(self):
        assert DEFAULT_PTH_BYTES == 800 * 1024

    def test_small_kernel_gets_loop_threads(self):
        alloc = allocate_threads(100 * 1024, max_threads=8)
        assert alloc.loop_threads == 8
        assert alloc.kernel_threads == 1

    def test_large_kernel_gets_kernel_threads(self):
        alloc = allocate_threads(2 * 1024**2, max_threads=8)
        assert alloc.loop_threads == 1
        assert alloc.kernel_threads == 8

    def test_boundary_is_kernel_side(self):
        alloc = allocate_threads(DEFAULT_PTH_BYTES, max_threads=4)
        assert alloc.kernel_threads == 4

    def test_loop_iterations_cap(self):
        # Only 2 loop iterations: the surplus idles, since P_C sizes the
        # process-wide BLAS pool and cannot run under P_L workers.
        alloc = allocate_threads(1024, max_threads=8, loop_iterations=2)
        assert alloc.loop_threads == 2
        assert alloc.kernel_threads == 1

    def test_single_iteration_forces_kernel_side(self):
        alloc = allocate_threads(1024, max_threads=8, loop_iterations=1)
        assert alloc.loop_threads == 1
        assert alloc.kernel_threads == 8

    def test_single_thread_budget(self):
        alloc = allocate_threads(1024, max_threads=1)
        assert alloc == ThreadAllocation(1, 1)

    def test_custom_pth(self):
        alloc = allocate_threads(1024, max_threads=4, pth_bytes=512)
        assert alloc.kernel_threads == 4  # 1024 >= 512: kernel side

    def test_validation(self):
        with pytest.raises(ValueError):
            allocate_threads(-1, 4)
        with pytest.raises(ValueError):
            allocate_threads(10, 0)
        with pytest.raises(ValueError):
            allocate_threads(10, 4, loop_iterations=0)

    def test_total(self):
        assert ThreadAllocation(2, 3).total == 6


class TestIterIndexSpace:
    def test_odometer_order(self):
        assert list(iter_index_space((2, 3))) == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)
        ]

    def test_empty_extents_yield_one_empty_tuple(self):
        assert list(iter_index_space(())) == [()]

    def test_zero_extent_yields_nothing(self):
        assert list(iter_index_space((2, 0))) == []


class TestParfor:
    def test_serial_visits_every_index(self):
        seen = []
        count = parfor((2, 3), seen.append, threads=1)
        assert count == 6
        assert sorted(seen) == sorted(iter_index_space((2, 3)))

    def test_parallel_visits_every_index_once(self):
        seen = []
        lock = threading.Lock()

        def body(index):
            with lock:
                seen.append(index)

        count = parfor((4, 5), body, threads=3)
        assert count == 20
        assert sorted(seen) == sorted(iter_index_space((4, 5)))

    def test_zero_iterations(self):
        assert parfor((0, 5), lambda i: None, threads=2) == 0

    def test_empty_extents_run_body_once(self):
        seen = []
        assert parfor((), seen.append, threads=1) == 1
        assert seen == [()]

    def test_worker_exception_propagates(self):
        def body(index):
            if index == (1,):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            parfor((4,), body, threads=2)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            parfor((2,), lambda i: None, threads=0)


class TestPersistentPool:
    def test_pool_is_reused_across_calls(self):
        from repro.parallel.parfor import get_pool

        first = get_pool(3)
        parfor((8,), lambda i: None, threads=3)
        parfor((8,), lambda i: None, threads=3)
        assert get_pool(3) is first

    def test_pool_count_stays_flat_under_repeated_parfor(self):
        from repro.parallel.parfor import active_pool_count

        parfor((6,), lambda i: None, threads=2)
        before = active_pool_count()
        for _ in range(5):
            parfor((6,), lambda i: None, threads=2)
        assert active_pool_count() == before

    def test_exception_still_propagates_through_reused_pool(self):
        def boom(index):
            if index == (3,):
                raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            parfor((8,), boom, threads=2)
        # The pool survives the failure and keeps working.
        seen = []
        lock = threading.Lock()

        def body(index):
            with lock:
                seen.append(index)

        assert parfor((8,), body, threads=2) == 8
        assert sorted(seen) == sorted(iter_index_space((8,)))

    def test_index_space_is_never_materialized(self):
        """A huge collapsed space must stream, not be list()-ed.

        2**40 iterations would need ~10 TB as a list; pulling only the
        first blocks and then failing proves the feed is lazy.
        """

        def body(index):
            raise RuntimeError("stop immediately")

        with pytest.raises(RuntimeError):
            parfor((2**20, 2**20), body, threads=2)


class TestNestedPools:
    """A parfor inside a parfor body runs inline on the calling worker,
    so no worker ever waits on its own pool."""

    @pytest.fixture(autouse=True)
    def watchdog(self, monkeypatch):
        # A pool that waits on itself fails in seconds, not never.
        monkeypatch.setenv(PARFOR_TIMEOUT_ENV, "30")

    def test_parfor_inside_parfor_completes(self):
        seen = []
        lock = threading.Lock()

        def inner(index):
            with lock:
                seen.append(index)

        def outer(index):
            parfor((2,), lambda i: inner(index + i), threads=2)

        assert parfor((2,), outer, threads=2) == 2
        assert sorted(seen) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_warm_kernel_threads_start_no_thread(self, monkeypatch):
        rng = np.random.default_rng(32)
        lib = repro.InTensLi(max_threads=4)
        x = repro.DenseTensor(rng.standard_normal((16, 16, 16)), ROW_MAJOR)
        u = rng.standard_normal((8, 16))
        assert lib.plan(x.shape, 2, 8).kernel_threads == 4
        lib.ttm(x, u, 2)
        before = set(threading.enumerate())
        started = []
        start = threading.Thread.start

        def counting_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for _ in range(10):
            y = lib.ttm(x, u, 2)
        assert started == []
        assert set(threading.enumerate()) <= before
        np.testing.assert_allclose(
            y.data, ttm_reference(x.data, u, 2), rtol=1e-12, atol=1e-12
        )


def _pool_count() -> int:
    """The BLAS pool's current thread count, read through its getter."""
    getters = [g for _s, g in blasctl._get_controls() if g is not None]
    if not getters:
        pytest.skip("no BLAS thread-count getter in this process")
    return int(getters[0]())


def _pc_plan(shape=(16, 16, 16), mode=2, j=8, p_c=2, **kwargs):
    return default_plan(shape, mode, j, ROW_MAJOR, kernel_threads=p_c, **kwargs)


class TestBlasPoolKernelThreads:
    """P_C is the BLAS pool's thread count: sized around each kernel
    call, and always restored to the count it had before."""

    def test_pool_holds_n_threads_inside_and_its_count_after(self):
        before = _pool_count()
        with blasctl.blas_threads(3) as sized:
            assert sized
            assert _pool_count() == 3
        assert _pool_count() == before

    def test_count_restored_after_a_pc_call(self):
        rng = np.random.default_rng(40)
        x = repro.DenseTensor(rng.standard_normal((16, 16, 16)), ROW_MAJOR)
        u = rng.standard_normal((8, 16))
        lib = repro.InTensLi(max_threads=2)
        assert lib.plan(x.shape, 2, 8).kernel_threads == 2
        before = _pool_count()
        y = lib.ttm(x, u, 2)
        assert _pool_count() == before
        np.testing.assert_allclose(
            y.data, ttm_reference(x.data, u, 2), rtol=1e-12, atol=1e-12
        )

    def test_count_restored_when_the_kernel_raises(self):
        plan = _pc_plan()
        fn = compile_plan(plan)
        x = np.ones(plan.shape)
        y = np.empty(plan.out_shape)
        wrong_u = np.ones((plan.j, plan.shape[plan.mode] + 1))
        before = _pool_count()
        with pytest.raises(ValueError):
            fn(x, wrong_u, y)
        assert _pool_count() == before

    def test_count_restored_after_concurrent_pc_calls(self):
        rng = np.random.default_rng(41)
        # Kernels long enough that the two bodies overlap, at P_C values
        # other than the starting count, so interleaved set/restore pairs
        # would leave a stale count.
        before = _pool_count()
        p_c = [before + 1, before + 2]
        plans = [
            _pc_plan(shape=(64, 64, 64), p_c=p_c[0]),
            _pc_plan(shape=(48, 64, 64), p_c=p_c[1]),
        ]
        start = threading.Barrier(len(plans))
        errors = []

        def run(plan):
            try:
                x = rng.standard_normal(plan.shape)
                u = rng.standard_normal((plan.j, plan.shape[plan.mode]))
                fn = compile_plan(plan)
                y = np.empty(plan.out_shape)
                start.wait(timeout=30)
                for _ in range(100):
                    fn(x, u, y)
                np.testing.assert_allclose(
                    y, ttm_reference(x, u, plan.mode), rtol=1e-12, atol=1e-12
                )
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(p,), daemon=True) for p in plans
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "hung"
        assert not errors, errors
        assert _pool_count() == before

    def test_loop_and_kernel_threads_together_are_rejected(self):
        with pytest.raises(PlanError, match="not both"):
            default_plan(
                (6, 5, 4, 3), 1, 2, ROW_MAJOR, loop_threads=2, kernel_threads=2
            )

    def test_no_setter_degrades_to_one_thread(self, monkeypatch):
        monkeypatch.setattr(blasctl, "_get_controls", lambda: [])
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        plan = _pc_plan(p_c=4)
        rng = np.random.default_rng(42)
        x = repro.DenseTensor(rng.standard_normal(plan.shape), ROW_MAJOR)
        u = rng.standard_normal((plan.j, plan.shape[plan.mode]))
        with track_hot_path() as counters:
            y = ttm_inplace(x, u, plan=plan)
            ttm_inplace(x, u, plan=plan)
        assert counters.kernel_thread_degradations == 1  # once per plan
        assert "blas_threads" not in plan.compiled.fn.__source__
        np.testing.assert_allclose(
            y.data, ttm_reference(x.data, u, plan.mode),
            rtol=1e-12, atol=1e-12,
        )

    def test_kernel_blas_does_not_run_degrades_to_one_thread(self):
        plan = _pc_plan(p_c=2, kernel="blocked")
        with track_hot_path() as counters:
            fn = compile_plan(plan)
        assert counters.kernel_thread_degradations == 1
        assert "blas_threads" not in fn.__source__
