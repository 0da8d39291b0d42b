"""Workload ``tucker``: one HOOI decomposition per op, through the fused chain.

The input is a seeded low-rank-plus-noise tensor.  HOOI runs to a stated
fit tolerance under a sweep cap; from the HOSVD start it converges in the
same number of sweeps for every seed, so each op does the same work.
The floor is the identical ``hooi`` call with a plain ``tensordot``
backend, so the ratio isolates the TTM layers (plan, chain, kernel).
"""

from __future__ import annotations

import importlib
import statistics
import time

import numpy as np

from harness import clock, front_end_layers, run_interleaved

SHAPE = (64, 64, 64)
RANK = 16
NOISE = 0.05
TOLERANCE = 1e-8
MAX_SWEEPS = 8
FIT_AGREEMENT = 1e-6

#: HOOI runs and front-end calls per case in a traced run.
PROBE_OPS = 10
PROBE_REPS = 15


def low_rank_plus_noise(rng, shape, rank, noise) -> np.ndarray:
    """A rank-(R, R, R) Tucker tensor plus Gaussian noise of relative size
    *noise*."""
    data = rng.standard_normal((rank,) * len(shape))
    for mode, extent in enumerate(shape):
        factor, _ = np.linalg.qr(rng.standard_normal((extent, rank)))
        data = np.moveaxis(np.tensordot(factor, data, axes=(1, mode)), 0, mode)
    scale = noise * np.linalg.norm(data) / np.sqrt(data.size)
    return np.ascontiguousarray(data + scale * rng.standard_normal(shape))


class TimedBackend:
    """A ``ttm_backend`` that times every call it forwards to *lib*."""

    def __init__(self, lib) -> None:
        self.lib = lib
        self.seconds = 0.0

    def __call__(self, x, u, mode):
        start = time.perf_counter()
        y = self.lib(x, u, mode)
        self.seconds += time.perf_counter() - start
        return y

    def ttm_chain(self, x, steps, **kwargs):
        start = time.perf_counter()
        y = self.lib.ttm_chain(x, steps, **kwargs)
        self.seconds += time.perf_counter() - start
        return y


class Tucker:
    name = "tucker"
    run = run_interleaved

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.x_data = low_rank_plus_noise(rng, SHAPE, RANK, NOISE)
        self.front_end_u = [rng.standard_normal((RANK, extent)) for extent in SHAPE]
        self.flops_per_op = 0

    def teardown(self) -> None:
        self.lib = None

    def setup(self, repro) -> None:
        self.repro = repro
        self.hooi = importlib.import_module("repro.decomp.tucker").hooi
        self.x = repro.DenseTensor(self.x_data)
        self.lib = repro.InTensLi()
        self.op()

    def op(self):
        return self.hooi(self.x, RANK, ttm_backend=self.lib,
                         max_iterations=MAX_SWEEPS, tolerance=TOLERANCE)

    def floor(self):
        """The same HOOI over ``tensordot``; counts 2·|X|·J per product."""
        flops = 0
        dense = self.repro.DenseTensor

        def backend(x, u, mode):
            nonlocal flops
            flops += 2 * x.data.size * u.shape[0]
            return dense(np.moveaxis(
                np.tensordot(u, x.data, axes=(1, mode)), 0, mode))

        result = self.hooi(self.x, RANK, ttm_backend=backend,
                           max_iterations=MAX_SWEEPS, tolerance=TOLERANCE)
        self.flops_per_op = flops
        return result

    def sample_op(self) -> float:
        return clock(self.op)[0]

    def matches(self, got, expected) -> bool:
        return (got.iterations == expected.iterations
                and abs(got.fit - expected.fit) <= FIT_AGREEMENT)

    def layers(self) -> dict:
        timed = TimedBackend(self.lib)
        chain_ms, self_ms = [], []
        for _ in range(PROBE_OPS):
            timed.seconds = 0.0
            op_s, result = clock(lambda: self.hooi(
                self.x, RANK, ttm_backend=timed,
                max_iterations=MAX_SWEEPS, tolerance=TOLERANCE))
            chain_ms.append(timed.seconds * 1e3)
            self_ms.append((op_s - timed.seconds) * 1e3)
        cases = [(self.x, u, mode) for mode, u in enumerate(self.front_end_u)]
        metrics = front_end_layers(self.repro, cases, PROBE_REPS)
        metrics.update({
            "chain.ttm_chain_ms": statistics.median(chain_ms),
            "decomp.self_ms": statistics.median(self_ms),
            "hooi.sweeps": result.iterations,
        })
        return metrics
