"""Row-panel parallel GEMM: ``gemm(kernel="threaded")``.

The M dimension is split into row panels, one per worker, and each
worker runs an independent GEMM into its disjoint slice of the output.
NumPy's BLAS kernels release the GIL, so Python threads genuinely
overlap.  The panels run on :func:`repro.parallel.parfor.parfor`'s
persistent, supervised pools, so a warm call starts no thread.

Compiled plans do not call this: their ``P_C`` is the BLAS pool's own
thread count (:func:`repro.perf.blasctl.blas_threads`).
"""

from __future__ import annotations

import math

import numpy as np

from repro.parallel.parfor import parfor
from repro.util.dtypes import result_dtype
from repro.util.errors import ShapeError
from repro.util.validation import check_positive_int


def _row_panels(m: int, parts: int) -> list[tuple[int, int]]:
    """Split range(m) into <= parts near-equal contiguous panels."""
    parts = max(1, min(parts, m)) if m else 1
    panel = math.ceil(m / parts) if m else 0
    spans = []
    start = 0
    while start < m:
        stop = min(start + panel, m)
        spans.append((start, stop))
        start = stop
    return spans or [(0, 0)]


def gemm_threaded(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    accumulate: bool = False,
    threads: int = 2,
    kernel: str = "auto",
) -> np.ndarray:
    """``out = a @ b`` with *threads*-way row-panel parallelism.

    Each panel is dispatched through :func:`repro.gemm.interface.gemm`
    with the given inner *kernel* (``auto`` routes per-panel by stride
    legality, so a strided operand still works).
    """
    from repro.gemm.interface import gemm

    check_positive_int(threads, "threads")
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"gemm operands must be 2-D, got {a.ndim}-D and {b.ndim}-D")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if out is None:
        if accumulate:
            raise ShapeError("accumulate=True requires an out array")
        out = np.empty((m, n), dtype=result_dtype(a, b))
    elif out.shape != (m, n):
        raise ShapeError(f"out shape {out.shape} != {(m, n)}")

    panels = _row_panels(m, threads)

    def run(index: tuple[int]) -> None:
        lo, hi = panels[index[0]]
        if hi > lo:
            gemm(a[lo:hi], b, out=out[lo:hi], accumulate=accumulate, kernel=kernel)

    # parfor's persistent pools: one panel per worker, the first worker
    # exception propagates, and a single panel runs inline.
    parfor((len(panels),), run, threads=len(panels))
    return out
