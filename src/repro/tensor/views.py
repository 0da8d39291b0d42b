"""Copy-free sub-tensor extraction (the paper's ``inplace-mat``).

Algorithm 2 computes the mode-n product by iterating over *loop modes* and,
at each loop iteration, running a GEMM on a 2-D **view** of the original
storage whose row and column dimensions are (possibly merged) runs of
tensor modes.  This module constructs those views.

The central invariant (Lemma 4.1): a run of modes can appear merged as one
matrix dimension *only if* its element strides nest — i.e. the run is
consecutive in index order and contiguous in storage.  ``merged_stride``
checks that nesting property directly on the strides, so it works for both
row-major and column-major tensors and fails loudly if a caller requests a
merge that would require a copy.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.tensor.dense import DenseTensor
from repro.util.errors import LayoutError, ShapeError


def _as_dense(tensor) -> DenseTensor:
    if isinstance(tensor, DenseTensor):
        return tensor
    raise TypeError(
        f"expected DenseTensor, got {type(tensor).__name__}; wrap ndarrays "
        "with DenseTensor so the storage layout is explicit"
    )


def merged_stride(
    strides: Sequence[int], shape: Sequence[int], run: Sequence[int]
) -> int:
    """Element stride of the dimension formed by merging the mode *run*.

    Raises :class:`LayoutError` if the strides over *run* do not nest, i.e.
    the merge would require physical reorganization.  Size-1 modes are
    stride-agnostic and never block a merge.
    """
    run_t = [int(m) for m in run]
    if not run_t:
        raise ShapeError("cannot merge an empty mode run")
    if run_t != list(range(run_t[0], run_t[0] + len(run_t))):
        raise LayoutError(
            f"modes {run_t} are not consecutive; merging them without a "
            "copy is impossible (Lemma 4.1)"
        )
    if any(shape[m] == 0 for m in run_t):
        # The merged dimension has zero extent: the view addresses no
        # memory, so any stride is valid (zero-extent modes also report
        # stride 0, which would spuriously fail the nesting check).
        return 1
    effective = [m for m in run_t if shape[m] != 1]
    if not effective:
        return 1
    # The merged dimension enumerates the run in odometer order; its stride
    # is the smallest stride in the run, and every coarser stride must equal
    # the next-finer stride times that mode's extent ("nesting").
    order = sorted(effective, key=lambda m: strides[m])
    expected = strides[order[0]]
    for m in order:
        if strides[m] != expected:
            raise LayoutError(
                f"modes {run_t} have non-nesting strides "
                f"{[strides[m] for m in run_t]} for shape "
                f"{[shape[m] for m in run_t]}; merge requires a copy"
            )
        expected *= shape[m]
    return strides[order[0]]


def _base_offset(
    strides: Sequence[int],
    shape: Sequence[int],
    fixed: Mapping[int, int],
) -> int:
    offset = 0
    for mode, index in fixed.items():
        dim = shape[mode]
        if not 0 <= index < dim:
            raise IndexError(
                f"fixed index {index} out of bounds for mode {mode} (size {dim})"
            )
        offset += index * strides[mode]
    return offset


def _strided_2d(
    data: np.ndarray,
    offset: int,
    rows: int,
    cols: int,
    row_stride: int,
    col_stride: int,
) -> np.ndarray:
    """A writable (rows x cols) view at *offset* elements into *data*'s base.

    Geometry is validated against the buffer size before constructing the
    view so ``as_strided`` can never expose out-of-bounds memory.
    """
    itemsize = data.itemsize
    if rows == 0 or cols == 0:
        # An empty view touches no memory: any geometry is in bounds
        # (zero-extent tensors must still produce correctly shaped,
        # correctly typed empty views instead of raising).
        if offset < 0:
            raise ShapeError(f"view offset {offset} is negative")
        return np.empty((rows, cols), dtype=data.dtype)
    span = offset + (rows - 1) * row_stride + (cols - 1) * col_stride
    if offset < 0 or span >= data.size:
        raise ShapeError(
            f"view geometry out of bounds: offset={offset}, rows={rows}, "
            f"cols={cols}, strides=({row_stride},{col_stride}), "
            f"buffer={data.size}"
        )
    flat = data.reshape(-1, order="A")
    if flat.base is None and flat is not data:  # pragma: no cover
        raise LayoutError("tensor storage is unexpectedly non-contiguous")
    return np.lib.stride_tricks.as_strided(
        flat[offset:],
        shape=(rows, cols),
        strides=(row_stride * itemsize, col_stride * itemsize),
        writeable=True,
    )


def merged_matrix_view(
    tensor: DenseTensor,
    row_modes: Sequence[int],
    col_modes: Sequence[int],
    fixed: Mapping[int, int] | None = None,
) -> np.ndarray:
    """In-place 2-D matrix view of *tensor* (the paper's ``inplace-mat``).

    *row_modes* and *col_modes* are each a consecutive run of modes merged
    into the row and column dimension respectively; every other mode must
    appear in *fixed* with a concrete index.

    Returns a writable ndarray view sharing storage with ``tensor.data``.
    """
    t = _as_dense(tensor)
    fixed = dict(fixed or {})
    rows_t = tuple(int(m) for m in row_modes)
    cols_t = tuple(int(m) for m in col_modes)
    claimed = set(rows_t) | set(cols_t) | set(fixed)
    if set(rows_t) & set(cols_t):
        raise ShapeError(f"row modes {rows_t} and col modes {cols_t} overlap")
    if (set(rows_t) | set(cols_t)) & set(fixed):
        raise ShapeError("fixed modes overlap row/col modes")
    if claimed != set(range(t.order)):
        raise ShapeError(
            f"modes {sorted(claimed)} do not cover all modes of an "
            f"order-{t.order} tensor"
        )
    shape, strides = t.shape, t.strides
    n_rows = math.prod(shape[m] for m in rows_t)
    n_cols = math.prod(shape[m] for m in cols_t)
    row_stride = merged_stride(strides, shape, rows_t)
    col_stride = merged_stride(strides, shape, cols_t)
    offset = _base_offset(strides, shape, fixed)
    return _strided_2d(t.data, offset, n_rows, n_cols, row_stride, col_stride)


# The paper's name for the same operation (Algorithm 2, lines 3-4, 7-8).
inplace_mat = merged_matrix_view


def fiber(
    tensor: DenseTensor, mode: int, fixed: Mapping[int, int]
) -> np.ndarray:
    """A mode-*mode* fiber: fix every mode but one (figure 2b).

    Returns a 1-D writable view of length ``shape[mode]``.
    """
    t = _as_dense(tensor)
    mode = int(mode)
    if not 0 <= mode < t.order:
        raise ShapeError(f"mode {mode} out of range for order-{t.order} tensor")
    expect = set(range(t.order)) - {mode}
    if set(fixed) != expect:
        raise ShapeError(
            f"fiber requires fixed indices for modes {sorted(expect)}, "
            f"got {sorted(fixed)}"
        )
    # A fiber is a degenerate matrix view with a single column.
    offset = _base_offset(t.strides, t.shape, fixed)
    mat = _strided_2d(t.data, offset, t.shape[mode], 1, t.strides[mode], 1)
    return mat[:, 0]


def mode_slice(
    tensor: DenseTensor,
    free_modes: Sequence[int],
    fixed: Mapping[int, int],
) -> np.ndarray:
    """A 2-D slice: fix all but exactly two modes (figure 2a).

    The two *free_modes* need not be adjacent — a slice never merges modes,
    so each free mode keeps its own stride and any pair is view-able.
    """
    t = _as_dense(tensor)
    free_t = tuple(int(m) for m in free_modes)
    if len(free_t) != 2:
        raise ShapeError(f"a slice has exactly 2 free modes, got {free_t}")
    expect = set(range(t.order)) - set(free_t)
    if set(fixed) != expect:
        raise ShapeError(
            f"slice requires fixed indices for modes {sorted(expect)}, "
            f"got {sorted(fixed)}"
        )
    r, c = free_t
    offset = _base_offset(t.strides, t.shape, fixed)
    return _strided_2d(
        t.data, offset, t.shape[r], t.shape[c], t.strides[r], t.strides[c]
    )


def subtensor_matrix(
    tensor: DenseTensor,
    split_after: int,
) -> np.ndarray:
    """View the whole tensor as a matrix by splitting modes at *split_after*.

    Modes ``0..split_after-1`` merge into rows and ``split_after..N-1``
    into columns; both runs must be storage-contiguous (always true for a
    contiguous tensor of either layout).
    """
    t = _as_dense(tensor)
    if not 1 <= split_after <= t.order - 1:
        raise ShapeError(
            f"split_after must be in [1, {t.order - 1}], got {split_after}"
        )
    rows = tuple(range(0, split_after))
    cols = tuple(range(split_after, t.order))
    return merged_matrix_view(t, rows, cols, {})
