"""Workload ``ooc``: budgeted out-of-core jobs from a memmapped input.

One op opens the ``.npy`` input with ``open_memmap_tensor`` and runs two
journaled ``ttm_tiled`` jobs that land their result on disk, then one
``ttm_stream_collect`` over row chunks of the same input.  The input is
four times the memory budget.  The mode-2 job splits only the outermost
axis, so its tiles are views; the mode-0 job has to split an inner axis
and packs every tile through scratch.  Tiling, packing, disk landing and
journal fsyncs dominate here, and the jobs run on the tiling layer's
default (interpreted) executor, so the ``InTensLi`` front end is
bypassed.
"""

from __future__ import annotations

import importlib
import os
import shutil
import statistics

import numpy as np

from harness import clock, close, floor_ttm, run_interleaved

SHAPE = (64, 64, 128)
J = 16
BUDGET = 1 << 20
#: ``mode -> tile path`` of the two tiled jobs.
TILED_MODES = {2: "views", 0: "packed"}
STREAM_MODE = 1
STREAM_ROWS = 16

#: Paired repetitions behind each layer timing in a traced run.
PROBE_REPS = 7


class OutOfCore:
    name = "ooc"
    run = run_interleaved

    def __init__(self, seed: int, workdir: str) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.x_path = os.path.join(workdir, "x.npy")
        x = np.lib.format.open_memmap(self.x_path, mode="w+",
                                      dtype=np.float64, shape=SHAPE)
        for lo in range(0, SHAPE[0], STREAM_ROWS):
            x[lo:lo + STREAM_ROWS] = rng.standard_normal(
                (min(STREAM_ROWS, SHAPE[0] - lo),) + SHAPE[1:])
        x.flush()
        del x
        self.u = {mode: rng.standard_normal((J, SHAPE[mode]))
                  for mode in (*TILED_MODES, STREAM_MODE)}
        self.flops_per_op = 2 * int(np.prod(SHAPE)) * J * (len(TILED_MODES) + 1)
        self.ops = 0

    def teardown(self) -> None:
        pass

    def setup(self, repro) -> None:
        self.repro = repro
        self.recovery = importlib.import_module("repro.resilience.recovery")
        self.tol = importlib.import_module("repro.testing").DTYPE_TOLERANCES
        self.release(self.op())

    def _job_dir(self) -> str:
        self.ops += 1
        path = os.path.join(self.workdir, f"op-{self.ops}")
        os.mkdir(path)
        return path

    def op(self):
        jobdir = self._job_dir()
        x = self.repro.open_memmap_tensor(self.x_path, "r")
        landed = {}
        for mode in TILED_MODES:
            out = os.path.join(jobdir, f"y{mode}.npy")
            journal = os.path.join(jobdir, f"y{mode}.journal")
            self.repro.ttm_tiled(x, self.u[mode], mode, budget=BUDGET,
                                 out_path=out, journal_path=journal)
            landed[mode] = (out, journal)
        rows = (x.data[lo:lo + STREAM_ROWS]
                for lo in range(0, SHAPE[0], STREAM_ROWS))
        streamed = self.repro.ttm_stream_collect(
            rows, self.u[STREAM_MODE], STREAM_MODE, axis=0)
        return jobdir, landed, streamed

    def floor(self):
        """The same products with ``tensordot`` on ``np.load``'s memmap,
        the two tiled results saved with ``np.save``."""
        x = np.load(self.x_path, mmap_mode="r")
        ys = {}
        for mode in TILED_MODES:
            ys[mode] = floor_ttm(x, self.u[mode], mode)
            np.save(os.path.join(self.workdir, "floor.npy"), ys[mode])
        ys[STREAM_MODE] = floor_ttm(x, self.u[STREAM_MODE], STREAM_MODE)
        return ys

    def release(self, got) -> None:
        shutil.rmtree(got[0])

    def sample_op(self) -> float:
        op_s, got = clock(self.op)
        self.release(got)
        return op_s

    def matches(self, got, expected) -> bool:
        """Each landed ``.npy`` and the streamed product against the floor,
        and every journal re-verified against the landed bytes; the op's
        files are removed afterwards."""
        _, landed, streamed = got
        ok = close(streamed.data, expected[STREAM_MODE], self.tol)
        for mode, (out, journal) in landed.items():
            ok = ok and close(np.load(out), expected[mode], self.tol)
            ok = ok and self.recovery.verify_journal(journal, out).ok
        self.release(got)
        return ok

    def layers(self) -> dict:
        repro = self.repro
        inttm = importlib.import_module("repro.core.inttm")
        x_mm = repro.open_memmap_tensor(self.x_path, "r")
        x_ram = repro.DenseTensor(np.load(self.x_path))
        lib = repro.InTensLi()
        sums = dict.fromkeys(("tiling.plan_ms", "tiling.exec_ms", "untiled_ms",
                              "tiling.land_ms", "recovery.journal_ms"), 0.0)
        for mode in TILED_MODES:
            u = self.u[mode]
            base = inttm.default_plan(SHAPE, mode, J, x_mm.layout)
            out = repro.DenseTensor.empty(base.out_shape, base.layout)

            def plan():
                return repro.TilingPlanner().plan(base, budget=BUDGET)

            tiling = plan()
            jobdir = self._job_dir()
            runs = iter(range(2 * PROBE_REPS))

            def landing(journaled: bool):
                n = next(runs)
                path = os.path.join(jobdir, f"y{n}.npy")
                journal = path + ".journal" if journaled else None
                return repro.ttm_tiled(x_mm, u, mode, budget=BUDGET,
                                       out_path=path, journal_path=journal)

            def in_ram():
                return repro.core.execute_tiled(x_mm, u, plan(), out=out)

            samples = {name: [] for name in sums}
            lib_plan = lib.plan(SHAPE, mode, J, x_ram.layout)
            for _ in range(PROBE_REPS):
                samples["tiling.plan_ms"].append(clock(plan)[0])
                samples["tiling.exec_ms"].append(clock(
                    lambda: repro.core.execute_tiled(x_ram, u, tiling, out=out))[0])
                samples["untiled_ms"].append(clock(
                    lambda: lib.execute(lib_plan, x_ram, u, out=out))[0])
                ram_s = clock(in_ram)[0]
                land_s = clock(lambda: landing(False))[0]
                journal_s = clock(lambda: landing(True))[0]
                samples["tiling.land_ms"].append(land_s - ram_s)
                samples["recovery.journal_ms"].append(journal_s - land_s)
            shutil.rmtree(jobdir)
            for name, values in samples.items():
                sums[name] += statistics.median(values) * 1e3
        rows = [x_mm.data[lo:lo + STREAM_ROWS]
                for lo in range(0, SHAPE[0], STREAM_ROWS)]
        stream_ms = statistics.median(
            clock(lambda: repro.ttm_stream_collect(
                rows, self.u[STREAM_MODE], STREAM_MODE, axis=0))[0]
            for _ in range(PROBE_REPS)) * 1e3
        untiled_ms = sums.pop("untiled_ms")
        sums["tiling.untiled_ratio"] = sums["tiling.exec_ms"] / untiled_ms
        sums["stream.ms"] = stream_ms
        return sums
