"""Control of the BLAS backend's worker-thread pool.

Calibration must know how many threads a measured GEMM actually used:
``np.matmul`` on a large matrix dispatches to the BLAS backend's own
pool, which defaults to every core.  And a compiled plan's ``P_C`` is
that pool's thread count, as MKL's is in the paper (§4.3.1).

Sizing is attempted through, in order:

1. a ``ctypes`` probe of the BLAS shared library the running process
   has actually loaded (found via ``/proc/self/maps``), trying the
   known ``*_set_num_threads`` entry points of OpenBLAS (including the
   suffixed ``scipy-openblas`` builds), BLIS and MKL.  The setters are
   probed once and cached, so a set plus restore costs ~1 µs;
2. ``threadpoolctl`` when importable (~60 µs per use);
3. a graceful no-op: :func:`blas_threads` still runs its body but
   reports ``pinned=False`` so callers can account honestly instead of
   scaling a rate they do not understand.

The probe never raises: any failure simply downgrades to the no-op.
"""

from __future__ import annotations

import contextlib
import ctypes
import logging
import os
import re
import threading
from typing import Callable, Iterator

log = logging.getLogger("repro.perf")

#: Library-name fragments identifying a BLAS implementation in the
#: process memory map.
_BLAS_LIB_PATTERN = re.compile(r"(/\S+(?:openblas|blis|mkl)\S*\.so\S*)", re.I)

#: (setter, getter) symbol-name candidates, tried in order per library.
#: Getters may be absent (MKL/BLIS); restoration then uses
#: ``os.cpu_count()``.
_SYMBOL_CANDIDATES: tuple[tuple[str, str | None], ...] = (
    ("openblas_set_num_threads", "openblas_get_num_threads"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("MKL_Set_Num_Threads", None),
    ("bli_thread_set_num_threads", None),
)

#: Cached probe result: None = not probed yet; [] = nothing controllable.
_controls: "list[tuple[Callable[[int], None], Callable[[], int] | None]] | None" = None

#: Held across every :func:`blas_threads` region.  Re-entrant, so a
#: region nested in another on one thread does not deadlock.
_POOL_LOCK = threading.RLock()


def _loaded_blas_paths() -> list[str]:
    """Shared-library paths of every BLAS mapped into this process."""
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                match = _BLAS_LIB_PATTERN.search(line)
                if match and match.group(1) not in paths:
                    paths.append(match.group(1))
    except OSError:
        pass  # non-Linux or hardened /proc: the ctypes path is unavailable
    return paths


def _probe_ctypes_controls() -> list[
    "tuple[Callable[[int], None], Callable[[], int] | None]"
]:
    controls = []
    for path in _loaded_blas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _SYMBOL_CANDIDATES:
            setter = getattr(lib, set_name, None)
            if setter is None:
                continue
            getter = getattr(lib, get_name, None) if get_name else None
            if getter is not None:
                getter.restype = ctypes.c_int
            setter.argtypes = [ctypes.c_int]
            controls.append((setter, getter))
            break  # one entry point per library is enough
    return controls


def _get_controls():
    global _controls
    if _controls is None:
        _controls = _probe_ctypes_controls()
        if not _controls:
            log.info(
                "no controllable BLAS threadpool found; calibration will "
                "report unpinned measurements"
            )
    return _controls


def blas_pinning_available() -> bool:
    """Whether :func:`blas_threads` can actually size the pool."""
    try:
        import threadpoolctl  # noqa: F401

        return True
    except ImportError:
        pass
    return bool(_get_controls())


@contextlib.contextmanager
def blas_threads(n: int) -> Iterator[bool]:
    """Run the body with the BLAS pool sized to *n* threads, best effort.

    Yields True when a sizing mechanism took effect, False when the
    body ran with whatever pool the backend chose — callers must branch
    their accounting on this flag rather than assume success.  The
    count is process-wide, so one lock is held across set, body and
    restore: concurrent regions run one after another, and each
    restores the count it read, on return or raise.
    """
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    controls = _get_controls()
    with _POOL_LOCK:
        if controls:
            previous = [getter() if getter else 0 for _setter, getter in controls]
            for setter, _getter in controls:
                setter(n)
            try:
                yield True
            finally:
                for (setter, _getter), before in zip(controls, previous):
                    setter(before if before > 0 else os.cpu_count() or 1)
            return
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            yield False
            return
        with threadpool_limits(limits=n, user_api="blas"):
            yield True
