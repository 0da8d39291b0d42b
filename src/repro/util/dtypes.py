"""Element-type policy: which dtypes the TTM stack executes faithfully.

The paper's working-set analysis (§4.3.1) is stated in *bytes*, not
elements, so the element size is a first-class tuning input: a float32
kernel touches half the memory of the float64 kernel with the same
geometry, which shifts the MSTH/MLTH window and therefore the chosen
degree.  This module pins down the supported set and the normalization
rule every layer (tensor wrapper, plan, estimator, kernels, plan cache)
shares, so "what dtype is this computation" has exactly one answer
end-to-end — never a silent upcast.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import DtypeError

#: Element types the plan/kernel stack executes natively.  float64 is the
#: paper's setting; float32 is the inference-style workload (half the
#: memory traffic); float16 is storage-only in BLAS terms and routes to
#: the blocked kernel (see :func:`repro.gemm.interface.resolve_kernel`).
SUPPORTED_DTYPES: tuple[str, ...] = ("float16", "float32", "float64")

#: The library-wide default (the paper's convention).
DEFAULT_DTYPE = np.dtype(np.float64)


#: Each supported dtype in native byte order, keyed by itself, its name
#: and its scalar type (``np.float32``): the dict hit answers the common
#: case without NumPy's Python-level ``.name`` getter (~5 us a read, and
#: every TTM used to pay it several times).  A key can only match an
#: equal dtype, so a hit is always the right answer.
_NATIVE: dict = {
    key: np.dtype(name)
    for name in SUPPORTED_DTYPES
    for key in (name, np.dtype(name), np.dtype(name).type)
}
_NATIVE_NAMES: dict = {key: dt.name for key, dt in _NATIVE.items()}


def canonical_dtype(dtype) -> np.dtype:
    """Normalize *dtype* to a supported :class:`numpy.dtype`.

    Accepts anything ``np.dtype`` accepts (names, type objects, dtype
    instances); raises :class:`DtypeError` for element types outside
    :data:`SUPPORTED_DTYPES` instead of guessing a coercion.  The result
    is always in **native byte order**: ``'>f8'`` normalizes to the
    native float64, so data stored byte-swapped is converted once where
    it is wrapped instead of failing every later dtype comparison.
    """
    try:
        return _NATIVE[dtype]
    except (KeyError, TypeError):
        pass
    try:
        dt = np.dtype(dtype)
    except TypeError as exc:
        raise DtypeError(f"not a dtype: {dtype!r}") from exc
    if dt.name not in SUPPORTED_DTYPES:
        raise DtypeError(
            f"dtype {dt.name!r} is not supported; choose from "
            f"{SUPPORTED_DTYPES}"
        )
    return _NATIVE[dt.name]


def dtype_name(dtype) -> str:
    """The canonical name of *dtype* (``'float32'``, ...), as plans store it.

    A dict read for native supported dtypes; anything else goes through
    :func:`canonical_dtype` (and raises :class:`DtypeError` like it).
    """
    try:
        return _NATIVE_NAMES[dtype]
    except (KeyError, TypeError):
        return _NATIVE_NAMES[canonical_dtype(dtype)]


def match_dtype(a, dtype: np.dtype, what: str = "U") -> np.ndarray:
    """Bring operand *a* to the tensor's *dtype*: preserve, reject, or lift.

    The one operand-dtype policy every TTM entry point shares.  An array
    already in *dtype* passes through untouched (no copy).  One that
    differs only in byte order is converted — same values, and a J x I_n
    matrix is negligible next to X.  A *different* supported float dtype
    raises :class:`DtypeError`: silently changing precision is the bug
    this policy exists to prevent, and so does a complex array, whose
    imaginary part the cast would drop.  Anything else (ints, bools,
    Python lists) is materialized in *dtype*.
    """
    a = np.asarray(a)
    if a.dtype == dtype:
        return a
    if a.dtype.kind == "c":
        raise DtypeError(
            f"{what} is complex ({a.dtype.name}); TTM operands must be "
            "real — casting would drop the imaginary part"
        )
    if (
        a.dtype.kind == "f"
        and is_supported_dtype(a.dtype)
        and canonical_dtype(a.dtype) != dtype
    ):
        raise DtypeError(
            f"{what} has dtype {a.dtype.name} but x is {dtype.name}; cast "
            f"{what} explicitly — mixing float widths would silently change "
            "the result's precision"
        )
    return np.asarray(a, dtype=dtype)


def result_dtype(*operands) -> np.dtype:
    """The dtype a kernel should allocate its output in.

    NumPy type promotion over the operands, floored at float64 for
    non-float inputs (ints, bools) so the kernels keep their historical
    behaviour of computing in floating point — but a float32 @ float32
    multiply stays float32 instead of being silently widened.
    """
    dt = np.result_type(*operands)
    if dt.kind != "f" or dt.name not in SUPPORTED_DTYPES:
        return DEFAULT_DTYPE
    return dt


def is_supported_dtype(dtype) -> bool:
    """True when *dtype* normalizes to a member of :data:`SUPPORTED_DTYPES`."""
    try:
        canonical_dtype(dtype)
    except DtypeError:
        return False
    return True
