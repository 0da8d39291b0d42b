"""Shared infrastructure for the paper-reproduction benchmark harness.

Every ``bench_*.py`` file reproduces one table or figure:

* run under ``pytest benchmarks/ --benchmark-only`` it registers
  pytest-benchmark timings for the headline operations and attaches the
  paper-style series to ``benchmark.extra_info``;
* run as a script (``python benchmarks/bench_figXX_*.py``) it prints the
  full paper-style table, prefixed by the machine configuration.

Sizes are scaled to a single-core container (see DESIGN.md's
substitution table): the paper's *shapes* — who wins, by what factor,
where the curves bend — are the reproduction target, not its absolute
GFLOP/s.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

import numpy as np

# Script invocations (``python benchmarks/bench_*.py``) run without the
# package installed or PYTHONPATH set; point the import machinery at src/.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.perf.flops import gflops_rate, ttm_flops
from repro.perf.machine import machine_info
from repro.perf.timing import time_callable
from repro.util.formatting import format_table

#: Default low-rank output size, matching the paper's J = 16.
DEFAULT_J = 16

#: Per-order side lengths for the order sweeps (figures 4, 9, 10).
#: Scaled so the largest order-5 case stays ~10^7 elements.
ORDER_SIZE_GRID = {
    3: (48, 64, 96, 128, 160),
    4: (12, 16, 20, 24, 28),
    5: (6, 8, 10, 12, 14),
}

#: Smaller grid for the copy-heavy baselines (figure 10's note that the
#: Tensor Toolbox/CTF runs need more memory than InTTM).
BASELINE_SIZE_GRID = {
    3: (48, 64, 96),
    4: (12, 16, 20),
    5: (6, 8, 10),
}


def print_header(title: str) -> None:
    """Print a benchmark banner with the machine configuration."""
    info = machine_info()
    print("=" * 72)
    print(title)
    print("=" * 72)
    for label, value in info.table_rows():
        print(f"  {label:24s} {value}")
    print("-" * 72)


def print_series(headers, rows, export_name: str | None = None) -> None:
    """Print a table; optionally also export it as JSON.

    Set ``REPRO_BENCH_JSON=<dir>`` to dump every printed series as
    ``<dir>/<export_name or auto>.json`` (headers + rows), so figures can
    be regenerated from the harness output without re-running it.
    """
    rows = [list(r) for r in rows]
    print(format_table(headers, rows))
    print()
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        name = export_name or f"series_{_EXPORT_COUNTER.bump():03d}"
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(
                {"headers": list(headers),
                 "rows": [[str(c) for c in r] for r in rows]},
                fh,
                indent=2,
            )


class _Counter:
    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> int:
        self.value += 1
        return self.value


_EXPORT_COUNTER = _Counter()


def time_ttm(fn, shape, j, min_seconds=0.05, min_repeats=2) -> tuple[float, float]:
    """(seconds, GFLOP/s) of a nullary TTM callable on the given geometry."""
    seconds = time_callable(fn, min_repeats=min_repeats, min_seconds=min_seconds)
    return seconds, gflops_rate(ttm_flops(shape, j), seconds)


def median_seconds(fns, **timing) -> list[float]:
    """Per-call seconds of each nullary callable in *fns*: a median.

    Each of five rounds times every callable once, in turn, with
    :func:`~repro.perf.timing.time_callable` (*timing* is passed on), so
    a slow phase of a shared host hits every side.  Each side reports
    the median of its rounds, which one lucky window cannot set, unlike
    the minimum of one window.
    """
    rounds = [[] for _ in fns]
    for _ in range(5):
        for fn, samples in zip(fns, rounds):
            samples.append(time_callable(fn, **timing))
    return [statistics.median(samples) for samples in rounds]


def matrix_for(shape, mode, j=DEFAULT_J, seed=1) -> np.ndarray:
    """The J x I_mode factor matrix used across benchmarks."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((j, shape[mode]))


def run_main(main_fn) -> None:
    """Script entry point wrapper (kept trivial; exists for symmetry)."""
    sys.exit(main_fn() or 0)
