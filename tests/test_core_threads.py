"""Tests for thread allocation (the PTH rule) and the parfor substrate."""

import threading

import numpy as np
import pytest

import repro
from repro.core.threads import (
    DEFAULT_PTH_BYTES,
    ThreadAllocation,
    allocate_threads,
)
from repro.parallel import iter_index_space, parfor
from repro.parallel.parfor import PARFOR_TIMEOUT_ENV
from repro.tensor.layout import ROW_MAJOR
from repro.testing import ttm_reference


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
        # Only 2 loop iterations: surplus threads flow to the kernel.
        alloc = allocate_threads(1024, max_threads=8, loop_iterations=2)
        assert alloc.loop_threads == 2
        assert alloc.kernel_threads == 4

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
    """P_L loop workers running P_C kernels: one persistent team per
    nesting depth, so no worker ever waits on its own pool."""

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
