"""GEMM substrate: the BLAS/BLIS layer of this reproduction.

The paper's in-place TTM bottoms out in matrix-matrix multiplies on
*views* of tensor storage, and its strategy choice depends on kernel
capabilities: MKL's GEMM demands unit stride in one dimension, while
BLIS accepts general strides at lower performance.  We reproduce that
split with three interchangeable kernels:

``reference``
    A naive triple loop; the correctness oracle for small problems.
``blas``
    The "MKL role": NumPy's BLAS-backed ``matmul`` restricted to
    BLAS-legal (unit-stride-in-one-dimension) operands; raises
    :class:`~repro.util.errors.StrideError` otherwise.
``blocked``
    The "BLIS role": a from-scratch Goto-style blocked GEMM with
    explicit packing; accepts arbitrary strides.

:func:`repro.gemm.interface.gemm` dispatches among them, and
:mod:`repro.gemm.bench` measures shape-dependent throughput to feed the
input-adaptive estimator (figures 5 and 8 of the paper).
"""

from repro.gemm.interface import (
    KERNELS,
    blas_legal,
    gemm,
    kernel_names,
    resolve_kernel,
    unit_stride_dims,
)
from repro.gemm.reference import gemm_reference
from repro.gemm.blas_like import gemm_blas
from repro.gemm.blocked import BlockSizes, gemm_blocked
from repro.gemm.threaded import gemm_threaded
from repro.gemm.bench import (
    GemmProfile,
    ShapePoint,
    measure_profile,
    synthetic_profile,
)

__all__ = [
    "KERNELS",
    "blas_legal",
    "gemm",
    "kernel_names",
    "resolve_kernel",
    "unit_stride_dims",
    "gemm_reference",
    "gemm_blas",
    "BlockSizes",
    "gemm_blocked",
    "gemm_threaded",
    "GemmProfile",
    "ShapePoint",
    "measure_profile",
    "synthetic_profile",
]
