"""The paper's in-place claim, gated on the warm path: a call allocates
its output and nothing else.

A warm ``InTensLi.ttm`` reads its plan from the facade's one plan cache
and runs it on views of the input and the output.  Under
``tracemalloc`` its peak must stay within 5% of the output's bytes plus
a fixed 4 KiB.  The fixed part covers the ~1-2 KiB of Python objects
one call makes, which 5% of the smallest output (4 KiB, 8³ float32 at
J=16) cannot.  A hidden copy of an operand — a ``reshape`` that cannot
be a view, a staged unfolding — or a cache hit that allocates fails
here instead of showing up as a slowdown.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.intensli import InTensLi
from repro.tensor.dense import DenseTensor
from repro.tensor.layout import COL_MAJOR, ROW_MAJOR

SHAPES = (
    (256, 256, 64),
    (16,) * 6,
    (128, 128, 128),
    (48, 48, 48, 48),
    (30, 40, 50),
    (7, 9, 11, 13),
    (8, 8, 8),
    (12, 10, 8, 6),
)
J = 16
SLACK = 1.05
FIXED_SLACK_BYTES = 4096


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("layout", [ROW_MAJOR, COL_MAJOR], ids=["C", "F"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_warm_call_allocates_only_its_output(shape, layout, dtype):
    rng = np.random.default_rng(0)
    x = DenseTensor(rng.standard_normal(shape), layout, dtype=dtype)
    lib = InTensLi()
    over = []
    for mode in range(len(shape)):
        u = rng.standard_normal((J, shape[mode])).astype(dtype)
        y = lib.ttm(x, u, mode)  # plans and compiles: the next call is warm
        out_bytes = y.data.nbytes
        del y
        peak = _peak_bytes(lambda: lib.ttm(x, u, mode))
        if peak > SLACK * out_bytes + FIXED_SLACK_BYTES:
            over.append((mode, peak, out_bytes))
    assert not over, f"(mode, peak bytes, output bytes) over budget: {over}"
