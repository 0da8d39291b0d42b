"""Argument validation helpers used across the package.

The public API validates eagerly with clear error messages; inner kernels
assume validated inputs for speed.
"""

from __future__ import annotations

import operator
from typing import Sequence

from repro.util.errors import ShapeError


def check_positive_int(value: int, name: str) -> int:
    """Validate that *value* is a positive (>= 1) integer and return it."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_mode(mode: int, order: int) -> int:
    """Validate a 0-based mode index against a tensor order and return it.

    The paper uses 1-based modes; this library is 0-based throughout and
    converts only when printing paper-style output.
    """
    if isinstance(mode, bool) or not isinstance(mode, int):
        raise TypeError(f"mode must be an int, got {type(mode).__name__}")
    if not 0 <= mode < order:
        raise ShapeError(f"mode {mode} out of range for order-{order} tensor")
    return mode


def check_shape(shape: Sequence[int]) -> tuple[int, ...]:
    """Validate a tensor shape and return it as a tuple of Python ints.

    Extents must be integers — NumPy integers pass via
    :func:`operator.index`; bools, floats and strings raise
    :class:`TypeError` instead of being truncated — and non-negative
    (:class:`ShapeError`).
    """
    if type(shape) is tuple:
        for extent in shape:
            if type(extent) is not int or extent < 0:
                break
        else:
            return shape
    extents = []
    for extent in shape:
        if isinstance(extent, bool):
            raise TypeError(f"shape extents must be ints, got bool in {shape!r}")
        try:
            extent = operator.index(extent)
        except TypeError:
            raise TypeError(
                f"shape extents must be ints, got "
                f"{type(extent).__name__} in {shape!r}"
            ) from None
        if extent < 0:
            raise ShapeError(f"shape extents must be >= 0, got {shape!r}")
        extents.append(extent)
    return tuple(extents)


def check_axis(axis: int, ndim: int) -> int:
    """Validate an axis index, allowing negative indices; return normalized."""
    if isinstance(axis, bool) or not isinstance(axis, int):
        raise TypeError(f"axis must be an int, got {type(axis).__name__}")
    if axis < 0:
        axis += ndim
    if not 0 <= axis < ndim:
        raise ShapeError(f"axis {axis} out of range for ndim {ndim}")
    return axis


def check_probability(value: float, name: str) -> float:
    """Validate that *value* lies in [0, 1] and return it as float."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_finite_result(array, kernel: str, context: str = "ttm") -> None:
    """Raise :class:`NumericError` when *array* contains NaN/Inf.

    Opt-in validation for the execution layer (``check_finite=True``):
    the error names the kernel that produced the values, so a poisoned
    result is attributed to its producer instead of surfacing three
    layers later in caller arithmetic.
    """
    import numpy as np

    from repro.util.errors import NumericError

    if array.size == 0 or array.dtype.kind not in "fc":
        return
    if bool(np.isfinite(array).all()):
        return
    bad = int(array.size - np.count_nonzero(np.isfinite(array)))
    raise NumericError(
        f"{context} result contains {bad} non-finite value(s) "
        f"(NaN/Inf) produced by kernel {kernel!r}; check the operands "
        "for non-finite input or overflow at this precision"
    )


def normalized_order(perm: Sequence[int], ndim: int) -> tuple[int, ...]:
    """Validate that *perm* is a permutation of range(ndim); return a tuple."""
    perm_t = tuple(int(p) for p in perm)
    if sorted(perm_t) != list(range(ndim)):
        raise ShapeError(f"{perm!r} is not a permutation of range({ndim})")
    return perm_t
