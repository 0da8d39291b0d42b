"""GEMM dispatch and stride legality predicates.

This module owns the kernel registry and the ``auto`` routing rule the
in-place TTM relies on: BLAS-legal operands go to the fast unit-stride
kernel (the MKL role), anything else to the general-stride blocked kernel
(the BLIS role) — mirroring the paper's forward/backward strategy
consequences (§4.3.1).
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from repro.obs.tracer import active_tracer
from repro.util.dtypes import SUPPORTED_DTYPES, canonical_dtype, result_dtype
from repro.util.errors import ShapeError, StrideError


def unit_stride_dims(array: np.ndarray) -> tuple[bool, bool]:
    """(rows_unit, cols_unit): which dimensions of a 2-D array have unit stride.

    A dimension of extent <= 1 is vacuously unit stride (BLAS accepts any
    ld for it).
    """
    if array.ndim != 2:
        raise ShapeError(f"expected a 2-D array, got {array.ndim}-D")
    itemsize = array.itemsize
    rows_unit = array.shape[0] <= 1 or array.strides[0] == itemsize
    cols_unit = array.shape[1] <= 1 or array.strides[1] == itemsize
    return rows_unit, cols_unit


def blas_legal(array: np.ndarray) -> bool:
    """True if a 2-D operand is expressible in the BLAS interface.

    BLAS matrices have unit stride in one dimension and a non-negative
    leading dimension in the other; general-stride operands (both strides
    non-unit) are *not* expressible — the limitation motivating BLIS and
    this paper's strategy choice.
    """
    if array.ndim != 2:
        return False
    if any(s < 0 for s in array.strides):
        return False
    return any(unit_stride_dims(array))


def _gemm_auto(a, b, out=None, accumulate=False):
    from repro.gemm.blas_like import gemm_blas
    from repro.gemm.blocked import gemm_blocked

    if (
        blas_dtype_legal(result_dtype(a, b))
        and blas_legal(a)
        and blas_legal(b)
        and (out is None or blas_legal(out))
    ):
        return gemm_blas(a, b, out=out, accumulate=accumulate)
    return gemm_blocked(a, b, out=out, accumulate=accumulate)


_REGISTRY: dict[str, Callable] | None = None


def _registry() -> dict[str, Callable]:
    # Built lazily (the kernel modules import this one) and cached: the
    # registry is immutable after first use, and rebuilding it per GEMM
    # call is measurable interpreter overhead on the TTM hot path.
    global _REGISTRY
    if _REGISTRY is None:
        from repro.gemm.blas_like import gemm_blas
        from repro.gemm.blocked import gemm_blocked
        from repro.gemm.reference import gemm_reference
        from repro.gemm.threaded import gemm_threaded

        _REGISTRY = {
            "auto": _gemm_auto,
            "blas": gemm_blas,
            "blocked": gemm_blocked,
            "reference": gemm_reference,
            "threaded": gemm_threaded,
        }
    return _REGISTRY


#: Element types each kernel executes natively.  ``blas`` is restricted to
#: the types real BLAS libraries expose (SGEMM/DGEMM); the pure-strided
#: kernels work elementwise and take every supported dtype.  ``auto`` and
#: ``threaded`` route per operand, so they inherit the full set.
KERNEL_DTYPES: dict[str, frozenset[str]] = {
    "auto": frozenset(SUPPORTED_DTYPES),
    "blas": frozenset(("float32", "float64")),
    "blocked": frozenset(SUPPORTED_DTYPES),
    "reference": frozenset(SUPPORTED_DTYPES),
    "threaded": frozenset(SUPPORTED_DTYPES),
}

#: Where a kernel that cannot execute a dtype is re-routed.  The blocked
#: kernel accepts arbitrary strides and every supported dtype, so it is
#: the universal (if slower) landing spot.
FALLBACK_KERNEL = "blocked"

_FALLBACKS_WARNED: set[tuple[str, str]] = set()


def blas_dtype_legal(dtype) -> bool:
    """True when *dtype* is a type real BLAS GEMM interfaces expose."""
    return np.dtype(dtype).name in KERNEL_DTYPES["blas"]


def kernel_supports(kernel: str, dtype) -> bool:
    """True when *kernel* executes *dtype* natively (no fallback needed)."""
    try:
        supported = KERNEL_DTYPES[kernel]
    except KeyError:
        raise StrideError(
            f"unknown gemm kernel {kernel!r}; choose from {KERNELS}"
        ) from None
    return canonical_dtype(dtype).name in supported


def resolve_kernel(kernel: str, dtype=None) -> Callable:
    """The callable behind a kernel name (for hoisting dispatch out of loops).

    ``gemm(..., kernel=k)`` performs a registry lookup per call; loop
    bodies that dispatch thousands of small GEMMs resolve the kernel once
    with this function instead and call the result directly.

    When *dtype* is given, the resolution is **capability-checked**: a
    kernel that cannot execute that element type (e.g. ``blas`` asked for
    float16, which no BLAS GEMM exposes) resolves to the
    :data:`FALLBACK_KERNEL` instead, with a one-time warning per
    ``(kernel, dtype)`` pair — never a silent upcast-and-copy of the
    operands.
    """
    registry = _registry()
    try:
        impl = registry[kernel]
    except KeyError:
        raise StrideError(
            f"unknown gemm kernel {kernel!r}; choose from {KERNELS}"
        ) from None
    if dtype is None:
        return impl
    dt = canonical_dtype(dtype)
    if dt.name in KERNEL_DTYPES[kernel]:
        return impl
    key = (kernel, dt.name)
    if key not in _FALLBACKS_WARNED:
        _FALLBACKS_WARNED.add(key)
        warnings.warn(
            f"gemm kernel {kernel!r} does not support dtype {dt.name}; "
            f"falling back to {FALLBACK_KERNEL!r} (strided, "
            "dtype-preserving). Pick a supported dtype to silence this.",
            RuntimeWarning,
            stacklevel=2,
        )
    return registry[FALLBACK_KERNEL]


KERNELS = "auto", "blas", "blocked", "reference", "threaded"


def kernel_names() -> tuple[str, ...]:
    """Names accepted by :func:`gemm`'s *kernel* argument."""
    return KERNELS


def gemm(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    *,
    accumulate: bool = False,
    kernel: str = "auto",
    **kwargs,
) -> np.ndarray:
    """Compute ``out = a @ b`` (``out += a @ b`` when *accumulate*).

    Parameters
    ----------
    a, b:
        2-D operands of any strides (kernel-dependent legality applies).
    out:
        Optional preallocated destination, written in place.  When given,
        the result is stored through *out*'s strides — this is what makes
        the TTM in-place.
    accumulate:
        Add into *out* instead of overwriting (GEMM's beta=1).
    kernel:
        One of ``auto | blas | blocked | reference | threaded``.
    kwargs:
        Kernel-specific options (e.g. ``block_sizes`` for ``blocked``,
        ``threads`` for ``threaded``).
    """
    impl = resolve_kernel(kernel)
    tracer = active_tracer()
    if tracer.enabled:
        current = tracer.current_span()
        # The executor wraps each compiled call in one gemm-kernel span;
        # only direct callers (library users, other layers) need one
        # opened here.
        if current is None or current.name != "gemm-kernel":
            with tracer.span(
                "gemm-kernel",
                m=a.shape[0],
                k=a.shape[1],
                n=b.shape[1],
                kernel=kernel,
                dtype=np.result_type(a, b).name,
                accumulate=accumulate,
            ):
                return impl(a, b, out=out, accumulate=accumulate, **kwargs)
    return impl(a, b, out=out, accumulate=accumulate, **kwargs)
