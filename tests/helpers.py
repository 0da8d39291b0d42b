"""Shared test utilities: definitional oracles and shape grids.

The single source of truth for TTM correctness in this repository is
:func:`ttm_oracle`, a direct transcription of the paper's equation (1)
via einsum.  Every TTM implementation (in-place, generated, baselines,
representation forms) is tested against it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.tensor.dense import DenseTensor
from repro.tensor.layout import Layout


def ttm_oracle(x: np.ndarray, u: np.ndarray, mode: int) -> np.ndarray:
    """Mode-n product by definition (equation 1): contract mode *mode* with U.

    ``Y[i1..j..iN] = sum_k X[i1..k..iN] * U[j, k]``.
    """
    moved = np.tensordot(u, x, axes=(1, mode))
    # tensordot puts the new J axis first; move it back to position `mode`.
    return np.moveaxis(moved, 0, mode)


def random_ttm_case(shape, j, mode, layout=Layout.ROW_MAJOR, seed=0):
    """A (tensor, matrix, mode) triple with deterministic contents."""
    rng = np.random.default_rng(seed)
    x = DenseTensor(rng.standard_normal(tuple(shape)), layout)
    u = rng.standard_normal((j, shape[mode]))
    return x, u, mode


# The two code shapes a facade call can run: the plan as the facade
# chose it, and the same plan unbatched, whose loop nest walks the
# hoisted views one 2-D kernel call per index.
FACADE_EXECUTORS = ["generated", "interpreted"]


def facade_ttm(lib, x, u, mode, executor):
    """``lib.ttm(x, u, mode)``, run in the code shape *executor* names.

    ``"generated"`` is :meth:`InTensLi.ttm` itself; ``"interpreted"``
    runs the facade's plan with its batch modes dropped through
    :meth:`InTensLi.execute`, so every loop index makes its own call.
    """
    if executor == "generated":
        return lib.ttm(x, u, mode)
    if executor != "interpreted":
        raise ValueError(f"unknown executor {executor!r}")
    u = np.asarray(u)
    plan = lib.plan(x.shape, mode, u.shape[0], x.layout, dtype=x.data.dtype)
    return lib.execute(dataclasses.replace(plan, batch_modes=()), x, u)


# Shape grid exercising orders 2..5, non-square extents, size-1 modes,
# and J both smaller and larger than I_n.
TTM_CASES = [
    # (shape, J, mode)
    ((7,), 3, 0),
    ((5, 6), 4, 0),
    ((5, 6), 4, 1),
    ((3, 4, 5), 2, 0),
    ((3, 4, 5), 6, 1),
    ((3, 4, 5), 2, 2),
    ((1, 4, 5), 2, 1),
    ((3, 1, 5), 2, 0),
    ((3, 4, 1), 2, 2),
    ((4, 4, 4, 4), 3, 0),
    ((2, 3, 4, 5), 2, 1),
    ((2, 3, 4, 5), 7, 2),
    ((2, 3, 4, 5), 2, 3),
    ((2, 2, 2, 2, 3), 2, 0),
    ((2, 2, 3, 2, 2), 4, 2),
    ((2, 2, 2, 2, 3), 2, 4),
    ((6, 5), 1, 0),  # J = 1
    ((3, 4, 5), 9, 1),  # J > I_n
]
