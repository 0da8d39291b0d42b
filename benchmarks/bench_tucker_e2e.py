"""End-to-end: Tucker-HOOI with in-place vs copy-based TTM.

The paper motivates INTENSLI with the Tucker decomposition, whose HOOI
iteration executes N*(N-1) mode-n products per sweep (§2) and whose
conclusion claims the framework "can be directly applied to tensor
decompositions".  This benchmark closes that loop: the identical HOOI
code runs over both TTM backends, so the only difference is the TTM.
"""

from __future__ import annotations

import os
import sys

import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import median_seconds, print_header, print_series
from repro.baselines import ttm_copy, ttm_ctf_like
from repro.core import InTensLi
from repro.decomp import hooi
from repro.tensor.generate import low_rank_tensor

SHAPE = (40, 40, 40, 40)
RANKS = (8, 8, 8, 8)
SWEEPS = 3


def backends():
    lib = InTensLi()
    return {
        # The facade instance is chain-capable: hooi hands it whole
        # projection chains (fused planning + scratch reuse).
        "inttm (fused chain)": lib,
        # The same facade stripped to a plain callable: identical
        # per-product path, but step-at-a-time with per-step allocation.
        "inttm (per-step)": lambda x, u, mode: lib.ttm(x, u, mode),
        "tt-ttm (copy)": ttm_copy,
        "ctf-like": lambda x, u, mode: ttm_ctf_like(x, u, mode),
    }


def run_backend(backend, x):
    return hooi(x, RANKS, ttm_backend=backend, max_iterations=SWEEPS,
                tolerance=0.0)


# -- pytest-benchmark targets --------------------------------------------------


@pytest.mark.parametrize("name", ["inttm", "tt-ttm"])
def test_tucker_hooi_backends(benchmark, name):
    x = low_rank_tensor((24, 24, 24), (6, 6, 6), seed=0)
    lib = InTensLi()
    backend = (
        (lambda t, u, mode: lib.ttm(t, u, mode)) if name == "inttm"
        else ttm_copy
    )
    result = benchmark.pedantic(
        lambda: hooi(x, (6, 6, 6), ttm_backend=backend, max_iterations=2,
                     tolerance=0.0),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
    benchmark.extra_info["fit"] = round(result.fit, 6)


def test_tucker_backends_reach_same_fit():
    x = low_rank_tensor((20, 20, 20), (5, 5, 5), seed=1)
    lib = InTensLi()
    fits = []
    for backend in (lambda t, u, m: lib.ttm(t, u, m), ttm_copy):
        result = hooi(x, (5, 5, 5), ttm_backend=backend, max_iterations=2,
                      tolerance=0.0)
        fits.append(result.fit)
    assert abs(fits[0] - fits[1]) < 1e-8


def main():
    print_header(
        f"Tucker-HOOI end-to-end, {SHAPE} tensor, ranks {RANKS}, "
        f"{SWEEPS} sweeps (identical algorithm, TTM backend swapped)"
    )
    x = low_rank_tensor(SHAPE, RANKS, noise=0.01, seed=0)
    runs = {
        name: (lambda backend=backend: run_backend(backend, x))
        for name, backend in backends().items()
    }
    # One untimed run per backend (its fit, and a warm plan cache), then
    # the median of five interleaved single runs per row.
    fits = {name: run().fit for name, run in runs.items()}
    times = dict(zip(runs, median_seconds(
        list(runs.values()), min_repeats=1, min_seconds=0.0
    )))
    base = times["inttm (fused chain)"]
    rows = [
        [name, f"{seconds:7.3f} s", f"{fits[name]:.4f}",
         f"{base / seconds:5.2f}x"]
        for name, seconds in times.items()
    ]
    print_series(
        ["ttm backend", "median wall time", "fit", "speedup vs fused"], rows
    )
    print(
        "The decomposition quality (fit) is identical; only the TTM "
        "implementation changes the runtime."
    )


if __name__ == "__main__":
    main()
