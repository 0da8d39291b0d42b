"""The "BLIS role": a Goto-style blocked GEMM with explicit packing.

Supports **arbitrary strides** on all three operands — including the
general-stride (both dimensions non-unit) matrices that arise when the
backward strategy slices a row-major tensor — the case classical BLAS
cannot express (§4.1).

Structure follows Goto & van de Geijn [11] / BLIS [43]:

* loop 5 partitions columns of B/C into ``NC`` panels,
* loop 4 partitions the K dimension into ``KC`` slabs and **packs** the
  ``KC x NC`` panel of B into a contiguous buffer,
* loop 3 partitions rows of A/C into ``MC`` blocks and **packs** the
  ``MC x KC`` block of A,
* the macrokernel multiplies the two packed (hence unit-stride) buffers.

Packing copies only cache-block-sized panels — the point of the paper's
distinction: strided kernels pay a *bounded, streaming* packing cost,
whereas matricization copies the whole tensor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs.tracer import active_tracer
from repro.resilience.faults import active_faults
from repro.util.dtypes import result_dtype
from repro.util.errors import ShapeError


@dataclass(frozen=True)
class BlockSizes:
    """Panel blocking parameters (elements, not bytes).

    Defaults target a ~1 MiB working set for the packed panels, in line
    with L2-resident A blocks and L3-resident B panels in the Goto
    analysis; tune via :func:`repro.gemm.bench.measure_profile` if needed.
    """

    mc: int = 128
    kc: int = 256
    nc: int = 512

    def __post_init__(self) -> None:
        for name in ("mc", "kc", "nc"):
            if getattr(self, name) < 1:
                raise ShapeError(f"block size {name} must be >= 1")

    @property
    def packed_bytes(self) -> int:
        """Bytes of float64 packing buffers (A block + B panel)."""
        return self.packed_bytes_for(8)

    def packed_bytes_for(self, itemsize: int) -> int:
        """Bytes of packing buffers for elements of *itemsize* bytes."""
        return itemsize * (self.mc * self.kc + self.kc * self.nc)


DEFAULT_BLOCKS = BlockSizes()


def gemm_blocked(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray | None = None,
    accumulate: bool = False,
    block_sizes: BlockSizes | None = None,
) -> np.ndarray:
    """``out = a @ b`` (or ``+=``) for operands of arbitrary strides.

    Returns *out* (allocated C-contiguous when None).
    """
    faults = active_faults()
    if faults is not None:
        # Before any write to out: an injected failure must look like a
        # kernel that never started.
        faults.check("kernel-raise", kernel="blocked")
    a = np.asarray(a)
    b = np.asarray(b)
    dt = result_dtype(a, b)
    if a.dtype != dt:
        a = np.asarray(a, dtype=dt)
    if b.dtype != dt:
        b = np.asarray(b, dtype=dt)
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"gemm operands must be 2-D, got {a.ndim}-D and {b.ndim}-D")
    m, k = a.shape
    k2, n = b.shape
    if k != k2:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    if out is None:
        out = np.empty((m, n), dtype=dt)
        accumulate = False
    elif out.shape != (m, n):
        raise ShapeError(f"out shape {out.shape} != {(m, n)}")
    blocks = block_sizes or DEFAULT_BLOCKS

    tracer = active_tracer()
    if tracer.enabled:
        current = tracer.current_span()
        # Callers routed through gemm(), and the executor's compiled
        # calls, already opened a gemm-kernel span; other direct callers
        # get one here.
        if current is None or current.name != "gemm-kernel":
            with tracer.span(
                "gemm-kernel",
                m=m,
                k=k,
                n=n,
                kernel="blocked",
                accumulate=accumulate,
            ):
                return _gemm_blocked_run(a, b, out, accumulate, blocks)
    return _gemm_blocked_run(a, b, out, accumulate, blocks)


def _gemm_blocked_run(
    a: np.ndarray,
    b: np.ndarray,
    out: np.ndarray,
    accumulate: bool,
    blocks: BlockSizes,
) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    mc, kc, nc = blocks.mc, blocks.kc, blocks.nc

    # Pre-allocated packing buffers, reused across all panels.  Packed in
    # the operand dtype: packing exists to fix strides, not element size.
    pack_a = np.empty((min(mc, m), min(kc, k)), dtype=a.dtype)
    pack_b = np.empty((min(kc, k), min(nc, n)), dtype=b.dtype)

    if k == 0:
        if not accumulate:
            out[...] = 0.0
        return out

    for jc in range(0, n, nc):
        j_hi = min(jc + nc, n)
        for pc in range(0, k, kc):
            p_hi = min(pc + kc, k)
            bp = pack_b[: p_hi - pc, : j_hi - jc]
            np.copyto(bp, b[pc:p_hi, jc:j_hi])
            first_slab = pc == 0
            for ic in range(0, m, mc):
                i_hi = min(ic + mc, m)
                ap = pack_a[: i_hi - ic, : p_hi - pc]
                np.copyto(ap, a[ic:i_hi, pc:p_hi])
                c_block = out[ic:i_hi, jc:j_hi]
                # Macrokernel: contiguous packed buffers hit the fast path.
                if first_slab and not accumulate:
                    c_block[...] = ap @ bp
                else:
                    c_block += ap @ bp
    return out
