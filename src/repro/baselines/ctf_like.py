"""A Cyclops-Tensor-Framework-flavoured TTM baseline.

CTF [40] targets distributed memory: tensors live **block-cyclically
distributed** over a virtual processor grid, and every contraction first
maps operands into the layout the contraction kernel wants, then maps
the result back.  Run on a single node, those mapping steps are extra
physical data reorganizations on top of Algorithm 1's matricization —
which is why CTF trails the Tensor Toolbox in figure 10 (~3 vs
~10 GFLOP/s) and why INTENSLI's speedup over it is larger (~13x vs ~4x).

This baseline reproduces that cost structure faithfully on one node:

1. **distribute** — pack the input tensor into per-processor cyclic
   blocks (one full-data reorganization);
2. **undistribute** — reassemble into a contiguous tensor at the
   contraction site (a second full-data pass; in real CTF this is the
   all-to-all redistribution into the contraction mapping);
3. Algorithm 1 (matricize / GEMM / tensorize);
4. **distribute** the result back into the cyclic layout and
   **undistribute** it for the caller.

Phases are charged to ``redistribute``, ``transform`` and ``multiply``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.tensor_toolbox import ttm_copy
from repro.perf.profiler import NullProfiler, PhaseProfiler
from repro.tensor.dense import DenseTensor
from repro.util.errors import ShapeError
from repro.util.validation import check_mode, check_positive_int


def processor_grid(order: int, nproc: int) -> tuple[int, ...]:
    """Factor *nproc* into an order-length grid, largest factors first.

    Mimics CTF's automatic virtual-topology folding: repeatedly peel the
    smallest prime factor of the remaining processor count onto the next
    grid dimension.
    """
    check_positive_int(order, "order")
    check_positive_int(nproc, "nproc")
    dims = [1] * order
    remaining = nproc
    axis = 0
    factor = 2
    while remaining > 1:
        while remaining % factor:
            factor += 1
        dims[axis % order] *= factor
        remaining //= factor
        axis += 1
    return tuple(dims)


def distribute_cyclic(
    x: DenseTensor, grid: tuple[int, ...]
) -> list[np.ndarray]:
    """Pack *x* into per-processor blocks of the cyclic distribution.

    Each virtual processor owns the sub-tensor of elements whose index is
    congruent to its coordinate along every mode; blocks are materialized
    contiguously (this is the physical reorganization being modelled).
    """
    if len(grid) != x.order:
        raise ShapeError(f"grid {grid} does not match order {x.order}")
    blocks: list[np.ndarray] = []
    for coord in np.ndindex(*grid):
        selector = tuple(
            slice(c, None, g) for c, g in zip(coord, grid)
        )
        blocks.append(
            np.array(x.data[selector], order=x.layout.numpy_order, copy=True)
        )
    return blocks


def undistribute_cyclic(
    blocks: list[np.ndarray],
    shape: tuple[int, ...],
    grid: tuple[int, ...],
    layout,
) -> DenseTensor:
    """Reassemble a cyclically distributed tensor into contiguous storage."""
    out = DenseTensor.empty(shape, layout)
    for coord, block in zip(np.ndindex(*grid), blocks):
        selector = tuple(slice(c, None, g) for c, g in zip(coord, grid))
        out.data[selector] = block
    return out


def ttm_ctf_like(
    x: DenseTensor,
    u: np.ndarray,
    mode: int,
    nproc: int = 4,
    profiler: PhaseProfiler | None = None,
    kernel: str = "blas",
    threads: int = 1,
) -> DenseTensor:
    """Mode-*mode* product with CTF-style redistribution overheads."""
    if not isinstance(x, DenseTensor):
        raise TypeError(f"x must be a DenseTensor, got {type(x).__name__}")
    u = np.asarray(u, dtype=np.float64)
    mode = check_mode(mode, x.order)
    if u.ndim != 2 or u.shape[1] != x.shape[mode]:
        raise ShapeError(
            f"U shape {u.shape} does not match (J, I_n={x.shape[mode]})"
        )
    prof = profiler or NullProfiler()
    grid = processor_grid(x.order, nproc)

    # The tensor notionally lives distributed; bring it to the contraction
    # mapping (pack + reassemble = the all-to-all redistribution cost).
    with prof.phase("redistribute"):
        blocks = distribute_cyclic(x, grid)
        gathered = undistribute_cyclic(blocks, x.shape, grid, x.layout)
    prof.charge_bytes(
        "redistribute", sum(b.nbytes for b in blocks)
    )

    y = ttm_copy(gathered, u, mode, profiler=prof, kernel=kernel,
                 threads=threads)

    # Map the result back into the cyclic home distribution, then hand the
    # caller a contiguous tensor (as CTF's read interface would).
    out_grid = processor_grid(y.order, nproc)
    with prof.phase("redistribute"):
        out_blocks = distribute_cyclic(y, out_grid)
        result = undistribute_cyclic(out_blocks, y.shape, out_grid, y.layout)
    prof.charge_bytes(
        "redistribute", sum(b.nbytes for b in out_blocks)
    )
    return result
