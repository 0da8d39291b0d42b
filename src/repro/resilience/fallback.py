"""The GEMM kernel fallback order: degrade, don't die.

The planner picks the *fastest* kernel for an input (paper §4.3.1); this
module makes that an optimistic first choice rather than a single point
of failure.  When a call's compiled code raises at execution time — a
BLAS error, a ``MemoryError`` from a packing buffer, an unsupported
stride — the executor (:func:`repro.core.inttm.ttm_inplace`) reruns the
whole call with the plan recompiled one tier down

    ``blas -> blocked -> reference``

recording each degradation as a :class:`~repro.perf.profiler
.HotCounters` tally (``kernel_fallbacks``) and a trace-span attribute,
and only raising — a typed :class:`~repro.util.errors
.KernelExecutionError` — when even the reference kernel fails.
Degradation never crosses calls: the next TTM trusts its plan again (a
transient failure should not permanently slow the process down).

This module holds the two decisions that loop needs: the tier order
(:func:`fallback_tiers`) and which errors a different kernel could fix
(:func:`recoverable`).
"""

from __future__ import annotations

from repro.util.errors import ReproError, StrideError

#: The degradation order: fastest and most demanding first, the
#: always-works scalar oracle last.
FALLBACK_CHAIN = ("blas", "blocked", "reference")


def fallback_tiers(kernel: str) -> tuple[str, ...]:
    """Kernel names to try in order, starting from the planned *kernel*.

    Kernels on the chain degrade along it; routing kernels (``auto``,
    ``threaded``) already pick per-operand, so they degrade straight to
    the universal tiers.
    """
    if kernel in FALLBACK_CHAIN:
        return FALLBACK_CHAIN[FALLBACK_CHAIN.index(kernel):]
    return (kernel,) + FALLBACK_CHAIN[1:]


def recoverable(exc: BaseException) -> bool:
    """True when retrying a *different kernel* could plausibly succeed.

    Stride legality is per-kernel (the motivating case: BLAS refuses
    general strides that the blocked kernel handles), and so are
    allocation failures (the blocked kernel's packing buffers, BLAS
    workspace) and numeric/runtime faults inside a backend.  Every other
    :class:`ReproError` — shape, dtype, plan mismatches — would fail
    identically in every tier and propagates untouched, as do
    programming errors (TypeError etc.).
    """
    if isinstance(exc, StrideError):
        return True
    if isinstance(exc, ReproError):
        return False
    return isinstance(
        exc, (MemoryError, ArithmeticError, RuntimeError, ValueError)
    )
