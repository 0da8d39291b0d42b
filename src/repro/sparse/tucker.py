"""Memory-efficient sparse Tucker (METTM-style HOSVD/HOOI).

The Tensor Toolbox's TTM baseline uses Kolda & Sun's memory-efficient
Tucker algorithm (the paper's [22]) to keep intermediates inside working
memory.  This module reproduces that computation on COO inputs: the
projection chain starts with a sparse TTM (semi-sparse result) and
continues with semi-sparse TTMs, so the full dense tensor is never
materialized — only the final projected tensor, whose extents are the
small Tucker ranks (times one original mode during factor updates).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.decomp.tucker import (
    TuckerResult,
    _check_ranks,
    _fit_from_norms,
    _gram_basis,
    _mode_gram,
)
from repro.sparse.coo import SparseTensor
from repro.sparse.ops import ttm_semisparse, ttm_sparse
from repro.tensor.dense import DenseTensor
from repro.util.errors import ShapeError


def project_all_but(
    x: SparseTensor, factors: Sequence[np.ndarray], skip: int | None
) -> DenseTensor:
    """``X x_m A_m^T`` over all modes (skipping *skip*) without densifying X.

    The first product runs the sparse kernel; the rest run the
    semi-sparse kernel.  Returns the (small) dense result.
    """
    modes = [m for m in range(x.order) if m != skip]
    if not modes:
        return x.to_dense()
    first, rest = modes[0], modes[1:]
    semi = ttm_sparse(x, np.ascontiguousarray(factors[first].T), first)
    for mode in rest:
        semi = ttm_semisparse(
            semi, np.ascontiguousarray(factors[mode].T), mode
        )
    return semi.to_dense()


def hosvd_sparse(x: SparseTensor, ranks) -> TuckerResult:
    """Truncated HOSVD of a sparse tensor via sparse mode-n Gram matrices.

    Factor *m* comes from the eigenbasis of ``X_(m) X_(m)^T``, assembled
    directly from the coordinates (never unfolding a dense tensor);
    the core is the memory-efficient projection chain.
    """
    if not isinstance(x, SparseTensor):
        raise TypeError(f"x must be a SparseTensor, got {type(x).__name__}")
    ranks_t = _check_ranks(x.shape, ranks)
    factors = [
        _gram_basis(_sparse_mode_gram(x, mode), rank)
        for mode, rank in enumerate(ranks_t)
    ]
    core = project_all_but(x, factors, skip=None)
    x_norm = float(np.linalg.norm(x.values))
    fit = _fit_from_norms(x_norm, core)
    return TuckerResult(core=core, factors=factors, fit=fit,
                        fit_history=[fit], iterations=0)


def hooi_sparse(
    x: SparseTensor,
    ranks,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> TuckerResult:
    """Sparse Tucker-HOOI: identical sweeps to the dense HOOI, with every
    projection running through the sparse/semi-sparse TTM kernels."""
    if not isinstance(x, SparseTensor):
        raise TypeError(f"x must be a SparseTensor, got {type(x).__name__}")
    ranks_t = _check_ranks(x.shape, ranks)
    if max_iterations < 1:
        raise ShapeError(f"max_iterations must be >= 1, got {max_iterations}")
    state = hosvd_sparse(x, ranks_t)
    factors = [f.copy() for f in state.factors]
    x_norm = float(np.linalg.norm(x.values))
    history: list[float] = []
    previous = -np.inf
    core = state.core
    iterations = 0
    for sweep in range(max_iterations):
        iterations = sweep + 1
        for mode, rank in enumerate(ranks_t):
            projected = project_all_but(x, factors, skip=mode)
            factors[mode] = _gram_basis(_mode_gram(projected, mode), rank,
                                        previous=factors[mode])
        core = project_all_but(x, factors, skip=None)
        fit = _fit_from_norms(x_norm, core)
        history.append(fit)
        if fit - previous < tolerance:
            break
        previous = fit
    return TuckerResult(core=core, factors=factors, fit=history[-1],
                        fit_history=history, iterations=iterations)


def _sparse_mode_gram(x: SparseTensor, mode: int) -> np.ndarray:
    """``X_(mode) @ X_(mode)^T`` assembled from COO coordinates.

    Nonzeros sharing the same non-*mode* coordinates (the same column of
    the unfolding) contribute ``v_a v_b`` to gram[i_a, i_b].
    """
    n = x.shape[mode]
    gram = np.zeros((n, n))
    if not x.nnz:
        return gram
    other = [m for m in range(x.order) if m != mode]
    keys = x.indices[:, other]
    if keys.shape[1] == 0:
        col = x.values
        rows = x.indices[:, mode]
        gram[np.ix_(rows, rows)] += np.outer(col, col)
        return gram
    _unique, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
    inverse = inverse.ravel()
    order = np.argsort(inverse, kind="stable")
    sorted_rows = x.indices[order, mode]
    sorted_vals = x.values[order]
    start = 0
    for count in counts:
        rows = sorted_rows[start : start + count]
        vals = sorted_vals[start : start + count]
        gram[np.ix_(rows, rows)] += np.outer(vals, vals)
        start += count
    return gram


def cp_als_sparse(
    x: SparseTensor,
    rank: int,
    max_iterations: int = 100,
    tolerance: float = 1e-8,
    seed=0,
):
    """CP-ALS on a sparse tensor via the SPLATT-style MTTKRP kernel.

    Runs the same ALS sweeps as :func:`repro.decomp.cp.cp_als` but with
    every MTTKRP computed from the COO coordinates — the dense tensor is
    materialized only conceptually (for the fit norm, the sparse
    Frobenius norm suffices, so never at all).
    """
    from repro.decomp.cp import cp_als
    from repro.sparse.ops import mttkrp_sparse

    if not isinstance(x, SparseTensor):
        raise TypeError(f"x must be a SparseTensor, got {type(x).__name__}")

    def backend(_x, factors, mode):
        return mttkrp_sparse(x, factors, mode)

    # cp_als needs the input only for its shape/order and Frobenius norm;
    # the proxy supplies those from the COO data, so the dense tensor is
    # never materialized.
    proxy = _SparseNormProxy(x)
    return cp_als(
        proxy,
        rank,
        max_iterations=max_iterations,
        tolerance=tolerance,
        mttkrp_backend=backend,
        seed=seed,
    )


class _SparseNormProxy:
    """Quacks like a DenseTensor for cp_als: shape, order, and a `data`
    object whose Frobenius norm equals the sparse tensor's."""

    def __init__(self, sp: SparseTensor):
        self.shape = sp.shape
        self.order = sp.order
        # A 1-D stand-in with the same Frobenius norm.
        self.data = sp.values

    @property
    def size(self) -> int:
        import math as _math

        return _math.prod(self.shape)
