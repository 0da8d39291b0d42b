"""Batched GEMM: one dispatch for a whole stack of matrix multiplies.

The in-place TTM's loop nest dispatches one small GEMM per loop-mode
index; when a run of those indices can be stacked into a rank-3 strided
view (:func:`repro.tensor.views.merged_batch_view`), the entire run is a
single *batched* multiply.  NumPy's ``matmul`` executes the batch loop in
C — one BLAS call per slice without re-entering the interpreter — which
is the closest Python analogue of the compiled loop nests of GETT-style
contraction engines, and the reason batching removes the interpreter
overhead a per-iteration loop nest pays.

``gemm_batched`` mirrors :func:`repro.gemm.interface.gemm`'s contract at
rank 3: the fast path requires every 2-D slice to be BLAS-legal (the
batch stride itself may be anything); other operands, explicit kernels,
and ``accumulate=True`` fall back to a per-slice loop through the normal
2-D dispatch, so results are always available and memory stays bounded
by one kernel-sized temporary.
"""

from __future__ import annotations

import numpy as np

from repro.gemm.interface import blas_legal, gemm
from repro.obs.tracer import active_tracer
from repro.resilience.faults import active_faults
from repro.util.dtypes import result_dtype
from repro.util.errors import ShapeError, StrideError


def batched_slices_blas_legal(array: np.ndarray) -> bool:
    """True when every 2-D slice of a rank-3 operand is BLAS-expressible.

    Slice legality is a pure function of the two inner strides, so one
    check covers the whole batch; the batch stride never matters (it only
    offsets successive calls).  2-D operands (broadcast across the batch)
    are judged directly.
    """
    if array.ndim == 2:
        return blas_legal(array)
    if array.ndim != 3:
        return False
    if array.shape[0] == 0:
        return True  # empty batch: no slice is ever dispatched
    return blas_legal(array[0])


def _normalize(name: str, array: np.ndarray) -> np.ndarray:
    arr = np.asarray(array)
    if arr.ndim not in (2, 3):
        raise ShapeError(f"{name} must be 2-D or 3-D, got {arr.ndim}-D")
    return arr


def _batch_of(a: np.ndarray, b: np.ndarray) -> int:
    batches = {arr.shape[0] for arr in (a, b) if arr.ndim == 3}
    if len(batches) > 1:
        raise ShapeError(
            f"batch extents differ: {a.shape} vs {b.shape}"
        )
    if not batches:
        raise ShapeError(
            "gemm_batched needs at least one 3-D operand; use gemm() for "
            "plain 2-D multiplies"
        )
    return batches.pop()


def _slice(arr: np.ndarray, i: int) -> np.ndarray:
    return arr[i] if arr.ndim == 3 else arr


def gemm_batched(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    *,
    accumulate: bool = False,
    kernel: str = "auto",
    **kwargs,
) -> np.ndarray:
    """Compute ``out[i] = a[i] @ b[i]`` for every batch slice ``i``.

    Parameters
    ----------
    a, b:
        Operands; each is either 3-D ``(B, ., .)`` or 2-D (shared across
        the batch).  At least one must be 3-D.
    out:
        Optional preallocated 3-D destination ``(B, m, n)``, written in
        place (possibly through arbitrary strides — this is what lets the
        TTM write straight into the output tensor's storage).
    accumulate:
        Add into *out* instead of overwriting; always executes per slice
        so the temporary stays one kernel in size, never batch-sized.
    kernel:
        ``auto`` uses the ``np.matmul`` fast path when every slice is
        BLAS-legal and loops through the 2-D dispatch otherwise; ``blas``
        demands legality (raising :class:`StrideError` like the 2-D
        kernel); any other registered kernel name loops per slice.
    kwargs:
        Forwarded to the per-slice 2-D dispatch (e.g. ``threads``).
    """
    a = _normalize("a", a)
    b = _normalize("b", b)
    batch = _batch_of(a, b)
    # Slice geometry from the shapes, not from slice 0: a batch of zero
    # slices is legal (zero-extent TTM inputs) and has nothing to index.
    m, k = a.shape[-2:]
    k2, n = b.shape[-2:]
    if k != k2:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if out is not None:
        out = np.asarray(out)
        if out.shape != (batch, m, n):
            raise ShapeError(f"out shape {out.shape} != {(batch, m, n)}")
    if accumulate and out is None:
        raise ShapeError("accumulate=True requires an out array")

    tracer = active_tracer()
    if tracer.enabled:
        current = tracer.current_span()
        # The executor wraps each compiled call in one gemm-kernel span;
        # only direct callers (library users, other layers) need one
        # opened here.
        if current is None or current.name != "gemm-kernel":
            with tracer.span(
                "gemm-kernel",
                batch=batch,
                m=m,
                k=k,
                n=n,
                kernel=kernel,
                dtype=np.result_type(a, b).name,
                accumulate=accumulate,
            ):
                return _gemm_batched_run(
                    a, b, out, batch, m, n, accumulate, kernel, kwargs
                )
    return _gemm_batched_run(a, b, out, batch, m, n, accumulate, kernel, kwargs)


def _gemm_batched_run(a, b, out, batch, m, n, accumulate, kernel, kwargs):
    from repro.gemm.interface import blas_dtype_legal

    strides_legal = (
        batched_slices_blas_legal(a)
        and batched_slices_blas_legal(b)
        and (out is None or batched_slices_blas_legal(out))
    )
    if kernel == "blas" and not strides_legal:
        raise StrideError(
            "batched operands have slices not expressible in the BLAS "
            "interface; use kernel='auto' or 'blocked' for general strides"
        )
    # Non-BLAS dtypes (float16) skip the matmul fast path and loop per
    # slice, where the 2-D dispatch applies its dtype capability fallback.
    legal = strides_legal and blas_dtype_legal(result_dtype(a, b))
    if kernel in ("blas", "auto") and legal and not accumulate and not kwargs:
        faults = active_faults()
        if faults is not None:
            # The matmul fast path bypasses the 2-D kernels (and their
            # checkpoints); cover it here so batched dispatches are as
            # injectable as per-slice ones.  Before any write to out.
            faults.check("kernel-raise", kernel=kernel, batched=True)
        if out is None:
            return np.matmul(a, b)
        np.matmul(a, b, out=out)
        return out

    # Per-slice fallback: same numerics as a per-iteration loop nest.
    slice_kernel = "auto" if kernel == "blas" else kernel
    if out is None:
        out = np.empty((batch, m, n), dtype=result_dtype(a, b))
    for i in range(batch):
        gemm(
            _slice(a, i),
            _slice(b, i),
            out=out[i],
            accumulate=accumulate,
            kernel=slice_kernel,
            **kwargs,
        )
    return out
