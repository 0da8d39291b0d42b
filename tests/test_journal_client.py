"""One journal client, one landing path.

Tiled TTM, streams and HOOI open, verify and land their units through
the same code in :mod:`repro.resilience.recovery`; plan files, GEMM
profiles and the plan store publish through the same temp-file +
``publish_file`` path.  These tests pin what that shared code must keep
doing for every client:

* a failed save leaves the previous file whole;
* a sidecar keeps its memory order (no row-major copy, no transposed
  reload);
* every resume check is counted, passed or failed;
* HOOI checkpoints resume from the CLI bit-for-bit, restart from a
  corrupt sidecar, and describe themselves like the other job kinds;
* a landed job pays a fixed sync budget, counted under ``store_fsyncs``:
  4 for a journaled tiled job, 2 without a journal, none to rerun a
  finished one, and a finished journal gets no second ``done``.
"""

from __future__ import annotations

import functools
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from repro.cli import main
from repro.core.inttm import default_plan
from repro.core.serialize import load_plans, save_plans
from repro.core.tiling import ttm_stream, ttm_tiled
from repro.decomp.tucker import hooi
from repro.perf.profiler import HotCounters, install_hot_counters
from repro.resilience import recovery
from repro.resilience.faults import InjectedFault, fault_injection
from repro.resilience.recovery import (
    Journal,
    atomic_save_array,
    describe_journal,
    verify_journal,
)
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import ROW_MAJOR
from repro.testing import ttm_reference

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _counted(fn):
    """Run *fn* under fresh hot counters; returns (result, counters)."""
    counters = HotCounters()
    previous = install_hot_counters(counters)
    try:
        return fn(), counters
    finally:
        install_hot_counters(previous)


def _flip_byte(path, offset=-8):
    with open(path, "r+b") as fh:
        fh.seek(offset, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(offset, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0x01]))


def _in_dir(path, *argv) -> int:
    cwd = os.getcwd()
    os.chdir(str(path))
    try:
        return main(list(argv))
    finally:
        os.chdir(cwd)


def _assert_same_decomposition(got, want):
    assert got.fit_history == want.fit_history
    assert got.iterations == want.iterations
    for a, b in zip(got.factors, want.factors):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(np.asarray(got.core.data),
                                  np.asarray(want.core.data))


# -- a failed save leaves the previous file ------------------------------------


def test_interrupted_save_plans_keeps_the_previous_file(tmp_path):
    plans = [default_plan((5, 5, 5), m, 2, ROW_MAJOR) for m in range(2)]
    path = tmp_path / "plans.json"
    save_plans(plans, str(path))
    before = path.read_bytes()

    def interrupted():
        yield plans[0]
        raise KeyboardInterrupt("save interrupted")

    with pytest.raises(KeyboardInterrupt):
        save_plans(interrupted(), str(path))
    assert path.read_bytes() == before
    assert load_plans(str(path)) == plans
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plans.json"]


# -- sidecars keep their memory order ------------------------------------------


def test_column_major_sidecar_saves_without_a_copy(tmp_path):
    """A 1 MiB column-major array lands without a 1 MiB row-major copy."""
    arr = np.asfortranarray(np.arange(1 << 17, dtype=np.float64)
                            .reshape(256, 512))
    path = str(tmp_path / "a.npy")
    atomic_save_array(str(tmp_path / "warm.npy"), arr)
    tracemalloc.start()
    try:
        atomic_save_array(path, arr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024, peak
    back = np.load(path)
    assert back.flags["F_CONTIGUOUS"]
    np.testing.assert_array_equal(back, arr)


def test_column_major_u_job_resumes_from_the_cli(tmp_path):
    """A killed tiled job whose U is a factor's transpose (column-major)
    resumes from its manifest bit-identically and then verifies."""
    rng = np.random.default_rng(17)
    x = open_memmap_tensor(str(tmp_path / "x.bin"), "w+", shape=(12, 6, 5),
                           dtype="float64")
    x.data[:] = rng.standard_normal((12, 6, 5))
    x.flush()
    u = rng.standard_normal((6, 4)).T
    assert u.flags["F_CONTIGUOUS"] and not u.flags["C_CONTIGUOUS"]
    ttm_tiled(x, u, 1, budget=500, out_path=str(tmp_path / "ref.bin"))
    with fault_injection() as faults:
        faults.arm("crash", exc=InjectedFault, site="tile-commit", tile=3)
        with pytest.raises(InjectedFault):
            ttm_tiled(x, u, 1, budget=500, out_path=str(tmp_path / "y.bin"),
                      journal_path=str(tmp_path / "job.json"))
    assert np.load(str(tmp_path / "job.json.u.npy")).flags["F_CONTIGUOUS"]
    assert _in_dir(tmp_path, "recover", "resume", "job.json") == 0
    assert _in_dir(tmp_path, "recover", "verify", "job.json") == 0
    assert (tmp_path / "y.bin").read_bytes() == \
        (tmp_path / "ref.bin").read_bytes()


# -- every resume check is counted ---------------------------------------------


def _interrupted_hooi(tmp_path, x):
    path = str(tmp_path / "job.json")
    with fault_injection() as faults:
        faults.arm("crash", exc=InjectedFault, site="sweep-end", sweep=2)
        with pytest.raises(InjectedFault):
            hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
                 checkpoint_path=path)
    return path


def _hooi_tensor():
    return DenseTensor(np.random.default_rng(12).standard_normal((9, 8, 7)))


@pytest.mark.parametrize("corrupt, resumed", [(False, 2), (True, 0)])
def test_hooi_resume_counts_its_sidecar_check(tmp_path, corrupt, resumed):
    """The sidecar check counts once whether it passes or fails."""
    x = _hooi_tensor()
    path = _interrupted_hooi(tmp_path, x)
    if corrupt:
        _flip_byte(f"{path}.state.npz")
    _, counters = _counted(lambda: hooi(x, (3, 3, 3), max_iterations=4,
                                        tolerance=0.0, checkpoint_path=path))
    assert counters.tiles_reverified == 1
    assert counters.tiles_resumed == resumed


def _interrupted_k_split(tmp_path):
    rng = np.random.default_rng(9)
    x_arr = rng.standard_normal((12, 6, 5))
    u = rng.standard_normal((4, 12))
    chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
    path = str(tmp_path / "j.json")
    with fault_injection() as faults:
        faults.arm("crash", exc=InjectedFault, site="chunk-commit", chunk=2)
        with pytest.raises(InjectedFault):
            list(ttm_stream(chunks, u, mode=0, axis=0, journal_path=path))
    return chunks, u, path


def test_failed_stream_sidecar_check_is_counted(tmp_path):
    chunks, u, path = _interrupted_k_split(tmp_path)
    _flip_byte(f"{path}.accum.npy")
    got, counters = _counted(
        lambda: list(ttm_stream(chunks, u, mode=0, axis=0,
                                journal_path=path))[-1]
    )
    assert counters.tiles_reverified == 1
    assert counters.tiles_resumed == 0
    assert counters.stream_chunks == 4
    ref = list(ttm_stream(chunks, u, mode=0, axis=0))[-1]
    np.testing.assert_array_equal(got.data.data, ref.data.data)


# -- HOOI checkpoints through the shared client --------------------------------


def test_cli_resume_of_hooi_killed_at_sweep_end(tmp_path):
    rng = np.random.default_rng(11)
    x = open_memmap_tensor(str(tmp_path / "x.bin"), "w+", shape=(10, 9, 8),
                           dtype="float64")
    x.data[:] = rng.standard_normal((10, 9, 8))
    x.flush()
    hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
         checkpoint_path=str(tmp_path / "ref.json"))
    script = """
        from repro.decomp.tucker import hooi
        from repro.resilience.faults import fault_injection
        from repro.tensor.dense import open_memmap_tensor
        x = open_memmap_tensor("x.bin", "r")
        with fault_injection() as faults:
            faults.arm("crash", site="sweep-end", sweep=2)
            hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
                 checkpoint_path="job.json")
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=str(tmp_path), env=env, capture_output=True, text=True,
    )
    assert proc.returncode == -9, proc.stderr
    assert _in_dir(tmp_path, "recover", "resume", "job.json") == 0
    with np.load(str(tmp_path / "job.json.state.npz")) as got, \
            np.load(str(tmp_path / "ref.json.state.npz")) as want:
        assert sorted(got.files) == sorted(want.files)
        for name in want.files:
            np.testing.assert_array_equal(got[name], want[name])
    assert _in_dir(tmp_path, "recover", "verify", "job.json") == 0


def test_corrupt_hooi_state_restarts_and_matches_plain(tmp_path):
    x = _hooi_tensor()
    path = _interrupted_hooi(tmp_path, x)
    _flip_byte(f"{path}.state.npz")
    got = hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
               checkpoint_path=path)
    _assert_same_decomposition(
        got, hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0)
    )
    assert verify_journal(path).ok


def test_describe_hooi_and_stream_journals(tmp_path):
    x = _hooi_tensor()
    hooi_path = str(tmp_path / "hooi.json")
    result = hooi(x, (3, 3, 3), max_iterations=3, tolerance=0.0,
                  checkpoint_path=hooi_path)
    assert describe_journal(hooi_path) == [
        ("journal", hooi_path),
        ("kind", "hooi"),
        ("schema", "1"),
        ("decision digest", describe_journal(hooi_path)[3][1]),
        ("sweeps committed", "3"),
        ("last fit", f"{result.fit:.6f}"),
        ("state_path", f"{hooi_path}.state.npz"),
        ("x_path", "None"),
        ("status", "complete"),
    ]

    chunks, u, stream_path = _interrupted_k_split(tmp_path)
    assert describe_journal(stream_path)[4:] == [
        ("chunks committed", "2"),
        ("state_path", f"{stream_path}.accum.npy"),
        ("status", "interrupted (resumable)"),
    ]
    list(ttm_stream(chunks, u, mode=0, axis=0, journal_path=stream_path))
    assert describe_journal(stream_path)[4:] == [
        ("chunks committed", "4"),
        ("state_path", f"{stream_path}.accum.npy"),
        ("status", "complete"),
    ]


# -- the sync budget of a landed job -------------------------------------------


@pytest.fixture
def sync_spy(monkeypatch):
    """Count ``np.memmap.flush`` calls, and pin the grouped-sync interval
    so a slow run cannot add an interval sync to the fixed budget."""
    flushes = []
    real_flush = np.memmap.flush

    def flush(self):
        flushes.append(self.filename)
        real_flush(self)

    monkeypatch.setattr(np.memmap, "flush", flush)
    monkeypatch.setattr(recovery, "open_or_resume", functools.partial(
        recovery.open_or_resume, sync_interval_s=3600.0))
    return flushes


def _memmapped_case(tmp_path):
    rng = np.random.default_rng(21)
    np.save(str(tmp_path / "x.npy"), rng.standard_normal((16, 12, 10)))
    return open_memmap_tensor(str(tmp_path / "x.npy"), "r"), \
        rng.standard_normal((5, 12))


def test_journaled_tiled_job_makes_four_syncs(tmp_path, sync_spy):
    """U sidecar data, output data, the journal at close, and one fsync
    of the directory they share — nothing else, and no msync."""
    x, u = _memmapped_case(tmp_path)
    out, journal = str(tmp_path / "y.npy"), str(tmp_path / "y.journal")
    _, counters = _counted(lambda: ttm_tiled(
        x, u, 1, budget=1024, out_path=out, journal_path=journal))
    assert counters.tiles_executed > 1
    assert counters.store_fsyncs == 4
    assert sync_spy == []
    np.testing.assert_allclose(np.load(out), ttm_reference(x.data, u, 1),
                               rtol=1e-10, atol=1e-12)
    assert verify_journal(journal, out).ok
    # Rerunning the finished job writes nothing and syncs nothing.
    _, rerun = _counted(lambda: ttm_tiled(
        x, u, 1, budget=1024, out_path=out, journal_path=journal))
    assert rerun.store_fsyncs == 0 and rerun.tiles_executed == 0
    assert [r["type"] for r in Journal.read(journal)[1]].count("done") == 1


def test_plain_landed_job_makes_two_syncs(tmp_path, sync_spy):
    """Output data and its directory; no msync before the fsync."""
    x, u = _memmapped_case(tmp_path)
    out = str(tmp_path / "y.npy")
    _, counters = _counted(lambda: ttm_tiled(x, u, 1, budget=1024,
                                             out_path=out))
    assert counters.tiles_executed > 1
    assert counters.store_fsyncs == 2
    assert sync_spy == []
    np.testing.assert_allclose(np.load(out), ttm_reference(x.data, u, 1),
                               rtol=1e-10, atol=1e-12)


def test_caller_memmap_out_is_still_flushed(tmp_path, sync_spy):
    x, u = _memmapped_case(tmp_path)
    out = open_memmap_tensor(str(tmp_path / "y.npy"), "w+",
                             shape=(16, 5, 10), dtype="float64")
    ttm_tiled(x, u, 1, budget=1024, out=out)
    assert len(sync_spy) == 1


def test_hooi_reruns_leave_one_done_record(tmp_path):
    x = _hooi_tensor()
    path = str(tmp_path / "job.json")
    first = hooi(x, (3, 3, 3), max_iterations=3, tolerance=0.0,
                 checkpoint_path=path)
    for _ in range(3):
        again, counters = _counted(lambda: hooi(
            x, (3, 3, 3), max_iterations=3, tolerance=0.0,
            checkpoint_path=path))
        assert counters.store_fsyncs == 0
        _assert_same_decomposition(again, first)
    types = [r["type"] for r in Journal.read(path)[1]]
    assert types == ["sweep", "sweep", "sweep", "done"]
