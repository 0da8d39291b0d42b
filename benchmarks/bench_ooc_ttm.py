"""Out-of-core tiled TTM: what staying under a memory budget costs.

The tiling executor (:func:`repro.core.tiling.execute_tiled`) breaks a
TTM whose working set exceeds ``$REPRO_MEM_LIMIT`` into block-range
tiles over the non-contracted modes, runs each tile through its own
estimator plan, and bounds transient memory by the budget.  This
benchmark prices that machinery against the unconstrained single-shot
execution on the same operands:

* ``speedup tiled`` — untiled seconds / tiled seconds.  Below 1.0 is
  the expected tiling tax (plan-per-tile, boundary tiles, a Python loop
  over tiles); the regression gate holds the tax steady rather than
  hoping for a win.
* ``tiles`` / ``path`` — the geometry the planner actually chose: how
  many tiles, and how they run.  Every tile runs in place as a
  (possibly strided) view, so ``path`` always reads ``views``; the
  column stays so the committed baseline's headers still match.
* The full run adds a disk leg: the same contraction with a
  memmap-backed input and output (``ttm_tiled(..., out_path=...)``),
  reported as wall seconds — informational, since it times the page
  cache as much as the code.
* ``journal ovh %`` — the price of crash-safety: the same tiled
  execution with ``journal_path=`` set (per-tile crc32 + an appended,
  group-fsynced commit record) against the unjournaled run.  The
  regression gate holds this under a fixed 5% ceiling
  (``HARD_CEILINGS`` in ``check_regression.py``).

Run as a script for the full table, or ``--quick`` for the small grid
the bench-regression workflow gates on.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile

import numpy as np
import pytest

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import (
    median_seconds,
    print_header,
    print_series,
    run_main,
)
from repro.core.inttm import default_plan, ttm_inplace
from repro.core.tiling import TilingPlanner, execute_tiled, ttm_tiled
from repro.perf.timing import Timer, time_callable
from repro.resilience import plan_footprint_bytes
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import ROW_MAJOR
from repro.tensor.generate import random_tensor

#: (shape, J, mode) cases.  mode == last on ROW_MAJOR cuts axis 0, a
#: contiguous view; mode 0 cuts axis 1, the outermost mode of the
#: component run (1, 2), so its strided tiles still run in place
#: (Lemma 4.1).  A cut inside a merged run would pack.
FULL_CASES = [
    ((64, 48, 32), 16, 2),
    ((48, 32, 64), 16, 0),
    ((128, 96, 64), 16, 2),
    ((96, 64, 128), 16, 0),
    ((32, 32, 32, 32), 8, 3),
]

QUICK_CASES = [
    ((64, 48, 32), 16, 2),
    ((48, 32, 64), 16, 0),
]

#: Journal-overhead cases deliberately pick a large contracted mode:
#: flops per output byte scale with ``I_mode``, while the journal cost
#: (crc32 of the landed region + one appended record) scales with the
#: output bytes, so these reflect the out-of-core jobs a journal is
#: actually for.  Tiny contractions would price the fixed ~1 ms fsync
#: cost of opening/closing the journal instead, which amortises to
#: nothing on any job long enough to be worth resuming.
JOURNAL_CASES = [
    ((96, 64, 8192), 32, 2),
    ((64, 48, 8192), 48, 2),
]

#: Back-to-back (plain, journaled) pairs per case.  The overhead column
#: is the *median* per-pair ratio: differencing two independently-timed
#: legs on a shared host swamps a few-percent effect in machine drift,
#: while a ratio taken within one pair cancels it.  The median, unlike
#: the minimum, is not set by one lucky pair, so the 5% ceiling can
#: catch a real journal regression.
JOURNAL_PAIRS = 9

MIN_SECONDS = 0.05


def build_case(shape, j, mode, seed=0):
    x = random_tensor(shape, seed=seed)
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal((j, shape[mode]))
    return x, u


def measure_case(shape, j, mode, min_seconds=MIN_SECONDS):
    x, u = build_case(shape, j, mode)
    base = default_plan(shape, mode, j, x.layout)
    ws = plan_footprint_bytes(base, allocate_out=False)
    budget = ws // 2
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    assert tiling.tiled, f"{shape} mode {mode} did not tile at {budget}B"

    out_shape = tuple(
        j if axis == mode else extent for axis, extent in enumerate(shape)
    )
    out_untiled = DenseTensor.empty(out_shape, x.layout)
    out_tiled = DenseTensor.empty(out_shape, x.layout)

    def untiled():
        return ttm_inplace(x, u, plan=base, out=out_untiled)

    def tiled():
        return execute_tiled(x, u, tiling, out=out_tiled)

    untiled()
    tiled()
    assert np.allclose(out_tiled.data, out_untiled.data, atol=1e-9)

    # Medians of interleaved windows: the gated speedup column is a
    # same-host ratio, and one window's minimum swung it 0.29-0.61x.
    secs_untiled, secs_tiled = median_seconds(
        [untiled, tiled], min_seconds=min_seconds
    )
    return {
        "shape": "x".join(str(s) for s in shape),
        "mode": mode,
        "j": j,
        "budget_kib": budget / 1024.0,
        "tiles": tiling.n_tiles,
        "path": "packed" if tiling.packed else "views",
        "ms_untiled": secs_untiled * 1e3,
        "ms_tiled": secs_tiled * 1e3,
        "speedup": secs_untiled / secs_tiled if secs_tiled > 0 else float("inf"),
    }


def measure_disk_leg(shape, j, mode, min_seconds=MIN_SECONDS):
    """Wall seconds for the memmap-in, memmap-out execution of a case."""
    rng = np.random.default_rng(2)
    u = rng.standard_normal((j, shape[mode]))
    base = default_plan(shape, mode, j, ROW_MAJOR)
    budget = plan_footprint_bytes(base, allocate_out=False) // 2
    with tempfile.TemporaryDirectory() as tmp:
        x = open_memmap_tensor(
            os.path.join(tmp, "x.npy"), "w+", shape=shape
        )
        x.data[...] = rng.standard_normal(shape)
        x.flush()

        counter = [0]

        def run():
            counter[0] += 1
            return ttm_tiled(
                x, u, mode, budget=budget,
                out_path=os.path.join(tmp, f"y{counter[0]}.npy"),
            )

        return time_callable(run, min_seconds=min_seconds)


def measure_journal_case(shape, j, mode, pairs=JOURNAL_PAIRS):
    """Tiled execution with and without a commit journal, same operands.

    Runs *pairs* back-to-back (plain, journaled) executions and reports
    the median per-pair time ratio as the overhead, so slow machine
    phases hit both legs of a pair and cancel out of the column the
    regression gate holds under its fixed ceiling.
    """
    x, u = build_case(shape, j, mode)
    base = default_plan(shape, mode, j, x.layout)
    budget = plan_footprint_bytes(base, allocate_out=False) // 2
    tiling = TilingPlanner().plan(base, budget=budget, out_preallocated=True)
    assert tiling.tiled, f"{shape} mode {mode} did not tile at {budget}B"
    out_shape = tuple(
        j if axis == mode else extent for axis, extent in enumerate(shape)
    )
    out = DenseTensor.empty(out_shape, x.layout)
    ratios = []
    secs_plain = []
    secs_journal = []
    with tempfile.TemporaryDirectory() as tmp:
        counter = [0]

        def plain():
            return execute_tiled(x, u, tiling, out=out)

        def journaled():
            counter[0] += 1
            return execute_tiled(
                x, u, tiling, out=out,
                journal_path=os.path.join(tmp, f"j{counter[0]}.jsonl"),
            )

        plain()
        journaled()
        timer = Timer()
        for _ in range(max(1, pairs)):
            with timer:
                plain()
            with timer:
                journaled()
            t_plain, t_journal = timer.laps[-2], timer.laps[-1]
            secs_plain.append(t_plain)
            secs_journal.append(t_journal)
            ratios.append(t_journal / t_plain if t_plain > 0 else 1.0)
    return {
        "shape": "x".join(str(s) for s in shape),
        "mode": mode,
        "j": j,
        "tiles": tiling.n_tiles,
        "ms_plain": min(secs_plain) * 1e3,
        "ms_journal": min(secs_journal) * 1e3,
        "overhead_pct": (statistics.median(ratios) - 1.0) * 100.0,
    }


def report_journal(rows, title):
    print_series(
        ["shape", "mode", "J", "tiles",
         "plain (ms)", "journaled (ms)", "journal ovh %"],
        [
            (
                r["shape"], r["mode"], r["j"], r["tiles"],
                f"{r['ms_plain']:.3f}", f"{r['ms_journal']:.3f}",
                f"{r['overhead_pct']:.2f}",
            )
            for r in rows
        ],
        export_name=title,
    )


def report(rows, title):
    print_series(
        ["shape", "mode", "J", "budget KiB", "tiles", "path",
         "untiled (ms)", "tiled (ms)", "speedup tiled"],
        [
            (
                r["shape"], r["mode"], r["j"], f"{r['budget_kib']:.0f}",
                r["tiles"], r["path"],
                f"{r['ms_untiled']:.3f}", f"{r['ms_tiled']:.3f}",
                f"{r['speedup']:.2f}x",
            )
            for r in rows
        ],
        export_name=title,
    )


# -- pytest targets ------------------------------------------------------------


@pytest.mark.parametrize("case", QUICK_CASES)
def test_tiled_path_matches_untiled(case):
    """Smoke: the measured paths agree before any timing is trusted."""
    shape, j, mode = case
    row = measure_case(shape, j, mode, min_seconds=0.0)
    assert row["tiles"] > 1


def test_disk_leg_completes():
    secs = measure_disk_leg((48, 32, 64), 16, 0, min_seconds=0.0)
    assert secs > 0


def test_journal_leg_completes():
    row = measure_journal_case((64, 48, 256), 16, 2, pairs=1)
    assert row["tiles"] > 1


# -- script entry --------------------------------------------------------------


def main() -> int:
    quick = "--quick" in sys.argv
    print_header(
        "Out-of-core tiled TTM: budget-bounded tiling vs unconstrained "
        "single-shot execution"
    )
    if quick:
        print("[quick] regression-gate grid only\n")
        report([measure_case(*case) for case in QUICK_CASES], "ooc_ttm_quick")
        print("crash-safety tax (journaled vs plain tiled execution):")
        report_journal(
            [measure_journal_case(*case) for case in JOURNAL_CASES],
            "ooc_journal_quick",
        )
        return 0
    report([measure_case(*case) for case in FULL_CASES], "ooc_ttm")
    print("crash-safety tax (journaled vs plain tiled execution):")
    report_journal(
        [measure_journal_case(*case) for case in JOURNAL_CASES],
        "ooc_journal",
    )
    print("disk leg (memmap in, memmap out, page cache warm):")
    for case in FULL_CASES[:2]:
        shape, j, mode = case
        secs = measure_disk_leg(shape, j, mode)
        label = "x".join(str(s) for s in shape)
        print(f"  {label} mode {mode} J={j}: {secs * 1e3:.2f} ms/run")
    print(
        "\nspeedup tiled is untiled/tiled on identical operands; below "
        "1.0 is the tiling tax the regression gate holds steady."
    )
    return 0


if __name__ == "__main__":
    run_main(main)
