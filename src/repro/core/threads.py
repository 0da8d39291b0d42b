"""Thread allocation: splitting the budget between ``P_L`` and ``P_C``.

The paper's rule (§4.3.1, *Thread allocation*): once ``M_C`` is fixed,
compare the inner kernel's working set against a threshold ``PTH``
(800 KB in their experiments, derived from InTTM runs rather than the
GEMM benchmark).  Small kernels parallelize poorly inside the GEMM, so
the threads go to the loop nest; large kernels amortize intra-GEMM
parallelism, so the threads go to the kernel.  Their experiments found
the best configurations always put *all* threads on one side, so only
those two allocations are considered.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive_int

#: The paper's measured PTH value (800 KB).
DEFAULT_PTH_BYTES = 800 * 1024


@dataclass(frozen=True)
class ThreadAllocation:
    """A (P_L, P_C) split of the thread budget."""

    loop_threads: int
    kernel_threads: int

    def __post_init__(self) -> None:
        check_positive_int(self.loop_threads, "loop_threads")
        check_positive_int(self.kernel_threads, "kernel_threads")

    @property
    def total(self) -> int:
        """Worst-case concurrent threads (the two levels multiply)."""
        return self.loop_threads * self.kernel_threads


def allocate_threads(
    kernel_bytes: int,
    max_threads: int,
    loop_iterations: int = 2**63,
    pth_bytes: int = DEFAULT_PTH_BYTES,
) -> ThreadAllocation:
    """Allocate *max_threads* to the loops or to the kernel (never split).

    *loop_iterations* caps ``P_L``: parallelizing a 3-iteration loop nest
    across 8 threads would idle five of them.  The surplus idles: ``P_C``
    sizes the process-wide BLAS pool, which ``P_L`` workers share.
    """
    check_positive_int(max_threads, "max_threads")
    if kernel_bytes < 0:
        raise ValueError(f"kernel_bytes must be >= 0, got {kernel_bytes}")
    check_positive_int(pth_bytes, "pth_bytes")
    if loop_iterations < 1:
        raise ValueError(f"loop_iterations must be >= 1, got {loop_iterations}")
    if kernel_bytes < pth_bytes and loop_iterations > 1:
        loop = min(max_threads, loop_iterations)
        return ThreadAllocation(loop_threads=loop, kernel_threads=1)
    return ThreadAllocation(loop_threads=1, kernel_threads=max_threads)
