"""Workload ``ttm-small``: warm ``repro.ttm`` over a fixed set of small shapes.

One op is one pass over every (shape, mode, J, layout, dtype) case below:
400 products on 8^3 to 32^3 cubes and one order-4 tensor, so an op lasts
about fifteen milliseconds rather than one call's tens of microseconds.  At
these sizes the front end (plan lookup, validation, memory guard, output
allocation, dispatch) costs more than the kernel, which is what this
workload is for.
"""

from __future__ import annotations

import importlib

import numpy as np

from harness import clock, close, floor_ttm, front_end_layers, run_interleaved

#: Every mode of each shape is contracted with each J.
SHAPES = tuple((n, n, n) for n in range(8, 33, 4)) + ((12, 10, 8, 6),)
RANKS = (2, 4, 8, 16)
DTYPES = ("float64", "float32")
LAYOUTS = ("row", "col")

#: Calls per case behind each front-end timing in a traced run.
PROBE_REPS = 15


class TtmSmall:
    name = "ttm-small"
    run = run_interleaved

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.inputs = []
        for shape in SHAPES:
            for dtype in DTYPES:
                for layout in LAYOUTS:
                    x = np.asarray(
                        rng.standard_normal(shape), dtype=dtype,
                        order="C" if layout == "row" else "F",
                    )
                    for mode in range(len(shape)):
                        for j in RANKS:
                            u = rng.standard_normal(
                                (j, shape[mode])).astype(dtype)
                            self.inputs.append((x, layout, u, mode))
        self.flops_per_op = sum(2 * x.size * u.shape[0]
                                for x, _, u, _ in self.inputs)
        self.cases = []
        self.oracles_checked = False

    def teardown(self) -> None:
        self.cases = []

    def setup(self, repro) -> None:
        self.repro = repro
        self.testing = importlib.import_module("repro.testing")
        self.cases = [(repro.DenseTensor(x, layout), u, mode)
                      for x, layout, u, mode in self.inputs]
        # The first pass builds the default InTensLi, estimates every plan
        # and compiles its kernel: the program's warm-up.
        self.op()

    def op(self):
        ttm = self.repro.ttm
        return [ttm(x, u, mode) for x, u, mode in self.cases]

    def floor(self):
        return [floor_ttm(x, u, mode) for x, _, u, mode in self.inputs]

    def sample_op(self) -> float:
        return clock(self.op)[0]

    def matches(self, got, expected) -> bool:
        """Every output against its floor; the first op also against the
        program's own oracles (equation (1) and the copy-based TTM)."""
        tol = self.testing.DTYPE_TOLERANCES
        ok = all(y.data.dtype == ref.dtype and close(y.data, ref, tol)
                 for y, ref in zip(got, expected))
        if not self.oracles_checked:
            self.oracles_checked = True
            for y, (x, u, mode) in zip(got, self.cases):
                reference = self.testing.ttm_reference(x.data, u, mode)
                # The copy-based TTM computes float32 input in float64.
                copied = self.repro.ttm_copy(x, u, mode).data
                ok = ok and close(y.data, reference, tol) and close(
                    y.data, copied, tol)
        return ok

    def layers(self) -> dict:
        return front_end_layers(self.repro, self.cases, PROBE_REPS)
