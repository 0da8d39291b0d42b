"""Offline-autotuning deployment workflow (the paper's usage model).

INTENSLI is an *offline* autotuner: benchmark the machine once, derive
the configuration, and reuse it for every production run.  This example
walks the full deployment loop with on-disk artifacts:

1. measure the GEMM shape benchmark and save it (``profile.json``);
2. build plans for the production workload's TTM signatures and save the
   plan cache (``plans.json``);
3. simulate a fresh production process: load both artifacts, run, and
   check that the hot-path counters saw no estimator run.

Run:  python examples/deployment_workflow.py
"""

import os
import tempfile
import time

import numpy as np

import repro
from repro.core import InTensLi
from repro.gemm.bench import GemmProfile, default_shape_grid, measure_profile
from repro.perf.profiler import track_hot_path

#: The production workload: the TTM signatures of a rank-16 Tucker sweep
#: over a 4th-order tensor.
WORKLOAD = [
    ((80, 80, 80, 80), mode, 16) for mode in range(4)
]


def tune(profile_path: str, plans_path: str) -> None:
    print("== offline tuning phase ==")
    grid = default_shape_grid(
        m_values=(16,), k_exponents=range(5, 11), n_exponents=range(5, 12)
    )
    t0 = time.perf_counter()
    profile = measure_profile(grid, threads=(1,), min_seconds=0.01)
    print(
        f"measured {len(profile)} GEMM shapes in "
        f"{time.perf_counter() - t0:.1f} s -> {profile_path}"
    )
    profile.save(profile_path)

    lib = InTensLi(profile=profile)
    for shape, mode, j in WORKLOAD:
        plan = lib.plan(shape, mode, j)
        print(f"  {plan.describe()}")
    count = lib.save_plan_cache(plans_path)
    print(f"pinned {count} plans -> {plans_path}")


def produce(profile_path: str, plans_path: str) -> None:
    print("== production phase (fresh process) ==")
    lib = InTensLi(profile=GemmProfile.load(profile_path))
    loaded = lib.load_plan_cache(plans_path)
    print(f"loaded {loaded} pinned plans; no estimation will run")

    rng = np.random.default_rng(0)
    x = repro.random_tensor(WORKLOAD[0][0], seed=1)
    total = 0.0
    with track_hot_path() as counters:
        for shape, mode, j in WORKLOAD:
            u = rng.standard_normal((j, shape[mode]))
            t0 = time.perf_counter()
            y = lib.ttm(x, u, mode)
            dt = time.perf_counter() - t0
            total += dt
            rate = 2 * j * x.size / dt / 1e9
            print(f"  mode {mode}: {dt * 1e3:7.1f} ms  ({rate:5.1f} GFLOP/s)")
            del y
    assert counters.estimator_runs == 0, counters.estimator_runs
    print(
        f"workload total {total * 1e3:.1f} ms with pinned configurations "
        f"({counters.plan_cache_hits} cache hits, 0 estimator runs)"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        profile_path = os.path.join(tmp, "profile.json")
        plans_path = os.path.join(tmp, "plans.json")
        tune(profile_path, plans_path)
        produce(profile_path, plans_path)
    print("(the same flow is available via: python -m repro profile ...)")


if __name__ == "__main__":
    main()
