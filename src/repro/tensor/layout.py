"""Storage layouts and stride arithmetic for dense tensors.

The paper's core argument (Lemma 4.1) is about which mode ranges may be
merged into a matrix dimension *without data movement*.  That property is a
pure function of the storage layout and the element strides, so we make
both explicit here instead of inferring them from NumPy flags deep inside
kernels.

Strides throughout this module are measured in **elements**, not bytes;
kernels convert to byte strides only at the NumPy boundary.
"""

from __future__ import annotations

import enum
import math
from typing import Sequence

from repro.util.errors import LayoutError


class Layout(enum.Enum):
    """Dense storage layout of a tensor.

    ``ROW_MAJOR`` (C order) stores the *last* mode with unit stride —
    the paper's default, leading to the *forward* strategy.
    ``COL_MAJOR`` (Fortran order) stores the *first* mode with unit
    stride — the Tensor Toolbox/MATLAB convention, leading to the
    *backward* strategy.
    """

    ROW_MAJOR = "C"
    COL_MAJOR = "F"

    # Members are singletons and enum ``==`` is identity, so identity
    # hashing agrees with equality; ``Enum.__hash__`` is Python-level and
    # every plan-cache key holds a layout.
    __hash__ = object.__hash__

    @property
    def numpy_order(self) -> str:
        """The NumPy ``order=`` character for this layout."""
        return self._value_

    @classmethod
    def parse(cls, value: "Layout | str") -> "Layout":
        """Accept a Layout or one of 'C'/'F'/'row'/'col' (case-insensitive)."""
        if isinstance(value, Layout):
            return value
        if isinstance(value, str):
            key = value.strip().upper()
            if key in ("C", "ROW", "ROW_MAJOR", "ROW-MAJOR"):
                return cls.ROW_MAJOR
            if key in ("F", "COL", "COL_MAJOR", "COL-MAJOR", "COLUMN_MAJOR"):
                return cls.COL_MAJOR
        raise LayoutError(f"unrecognized layout: {value!r}")


ROW_MAJOR = Layout.ROW_MAJOR
COL_MAJOR = Layout.COL_MAJOR


def element_strides(shape: Sequence[int], layout: Layout) -> tuple[int, ...]:
    """Element strides of a dense tensor with *shape* stored in *layout*.

    For row-major, ``stride[k] = prod(shape[k+1:])``; for column-major,
    ``stride[k] = prod(shape[:k])``.  A zero-dimensional shape yields ``()``.
    """
    ndim = len(shape)
    strides = [0] * ndim
    if layout is Layout.ROW_MAJOR:
        acc = 1
        for k in range(ndim - 1, -1, -1):
            strides[k] = acc
            acc *= int(shape[k])
    elif layout is Layout.COL_MAJOR:
        acc = 1
        for k in range(ndim):
            strides[k] = acc
            acc *= int(shape[k])
    else:  # pragma: no cover - enum exhausted
        raise LayoutError(f"unknown layout {layout!r}")
    return tuple(strides)


def storage_order(ndim: int, layout: Layout) -> tuple[int, ...]:
    """Mode indices from slowest-varying to fastest-varying in memory.

    Row-major order-(N) tensors vary mode N-1 fastest, so the storage order
    is ``(0, 1, ..., N-1)``; column-major is the reverse.
    """
    if layout is Layout.ROW_MAJOR:
        return tuple(range(ndim))
    return tuple(range(ndim - 1, -1, -1))


def leading_mode(ndim: int, layout: Layout) -> int:
    """The mode with unit stride (the paper's *leading dimension*)."""
    if ndim == 0:
        raise LayoutError("a 0-dimensional tensor has no leading mode")
    return ndim - 1 if layout is Layout.ROW_MAJOR else 0


def linear_index(index: Sequence[int], shape: Sequence[int], layout: Layout) -> int:
    """Flat storage offset of a multi-index under the given layout.

    Used by the cache simulator's trace generators and by tests as an
    independent oracle for view-based addressing.
    """
    if len(index) != len(shape):
        raise LayoutError(
            f"index rank {len(index)} does not match shape rank {len(shape)}"
        )
    strides = element_strides(shape, layout)
    offset = 0
    for i, (ix, dim) in enumerate(zip(index, shape)):
        if not 0 <= ix < dim:
            raise IndexError(f"index {ix} out of bounds for mode {i} (size {dim})")
        offset += ix * strides[i]
    return offset


def is_contiguous_run(modes: Sequence[int], ndim: int) -> bool:
    """True if *modes* is a non-empty run of consecutive mode indices.

    Lemma 4.1: only consecutive modes (in tensor-index order) can be merged
    into one matrix dimension without physical reorganization.
    """
    ms = list(modes)
    if not ms:
        return False
    if any(not 0 <= m < ndim for m in ms):
        return False
    return ms == list(range(ms[0], ms[0] + len(ms)))


def merged_extent(shape: Sequence[int], modes: Sequence[int]) -> int:
    """Product of extents over *modes* (the merged dimension's length)."""
    return math.prod(int(shape[m]) for m in modes)


def contiguous_mode_runs(modes: Sequence[int]) -> list[tuple[int, ...]]:
    """Split a sorted mode collection into maximal consecutive runs.

    Example: ``[0, 1, 3, 5, 6] -> [(0, 1), (3,), (5, 6)]``.
    """
    ms = sorted(int(m) for m in modes)
    runs: list[tuple[int, ...]] = []
    start = 0
    for i in range(1, len(ms) + 1):
        if i == len(ms) or ms[i] != ms[i - 1] + 1:
            runs.append(tuple(ms[start:i]))
            start = i
    return runs
