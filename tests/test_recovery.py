"""Crash-safe execution: the journaled checkpoint/restart layer.

Three tiers of proof, in increasing severity:

* unit tests of the journal format itself (torn tails, header
  mismatches, last-record-wins) and of the complete-or-untouched
  landing protocol;
* in-process crash/resume tests driven by the ``crash`` fault point's
  exception form, including a Hypothesis property over the shared
  geometry grid x layouts x dtypes: a run interrupted at any tile and
  resumed is *bit-identical* to an uninterrupted run;
* subprocess ``kill -9`` tests — the fault point's SIGKILL form — at
  every armed crash site (``tile-commit``, ``journal-append``,
  ``chunk-commit``, ``sweep-end``), proving the guarantees against real
  process death, not a simulation of it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autotune.store import PlanStore
from repro.core.tiling import (
    TilingPlan,
    execute_tiled,
    ttm_stream,
    ttm_tiled,
)
from repro.decomp.tucker import hooi
from repro.perf.profiler import HotCounters, install_hot_counters
from repro.resilience.faults import InjectedFault, fault_injection
from repro.resilience.recovery import (
    JOURNAL_SCHEMA,
    Journal,
    atomic_save_array,
    committed_units,
    describe_journal,
    digest_payload,
    file_checksum,
    fingerprint_array,
    fingerprint_tensor,
    is_done,
    open_or_resume,
    partial_path,
    region_checksum,
    resume_job,
    verify_journal,
)
from repro.tensor.dense import DenseTensor, open_memmap_tensor
from repro.tensor.layout import Layout
from repro.testing import DEFAULT_CASES
from repro.util.errors import RecoveryError

from .helpers import ttm_oracle

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _run_killed(script: str, cwd: str) -> None:
    """Run *script* in a subprocess and assert SIGKILL terminated it."""
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        cwd=cwd, env=_subprocess_env(), capture_output=True, text=True,
    )
    assert proc.returncode == -9, (
        f"expected SIGKILL (-9), got {proc.returncode}; "
        f"stderr:\n{proc.stderr}"
    )


def _forced_tiling(shape, mode, j, layout=Layout.ROW_MAJOR,
                   dtype="float64", parts=None) -> TilingPlan:
    """A deterministic multi-tile plan (no budget probe involved)."""
    if parts is None:
        parts = [1] * len(shape)
        for axis, extent in enumerate(shape):
            if axis != mode and extent >= 2:
                parts[axis] = min(extent, 3)
                break
    return TilingPlan(
        shape=tuple(shape), mode=mode, j=j, layout=Layout.parse(layout),
        dtype=dtype, parts=tuple(parts), budget=None,
        base_footprint_bytes=0, tile_footprint_bytes=0, packed=False,
        reason="test-forced",
    )


def _case(shape, j, mode, layout=Layout.ROW_MAJOR, dtype="float64",
          seed=0):
    rng = np.random.default_rng(seed)
    x = DenseTensor(
        rng.standard_normal(tuple(shape)).astype(dtype), layout
    )
    u = rng.standard_normal((j, shape[mode])).astype(dtype)
    return x, u


# -- the journal format --------------------------------------------------------


class TestJournal:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.json")
        journal = Journal.fresh(path, {"kind": "t", "digest": "d",
                                       "inputs": {}})
        journal.append({"type": "tile", "index": 0, "crc": 1})
        journal.append({"type": "tile", "index": 1, "crc": 2})
        journal.close({"type": "done", "tiles": 2})
        header, records = Journal.read(path)
        assert header["kind"] == "t"
        assert header["schema"] == 1
        assert [r["type"] for r in records] == ["tile", "tile", "done"]
        assert is_done(records)
        assert set(committed_units(records, "tile")) == {0, 1}

    def test_torn_trailing_line_dropped(self, tmp_path):
        path = str(tmp_path / "j.json")
        journal = Journal.fresh(path, {"kind": "t", "digest": "d",
                                       "inputs": {}})
        journal.append({"type": "tile", "index": 0, "crc": 1})
        journal.close()
        with open(path, "a") as fh:
            fh.write('{"type": "tile", "index": 1, "crc"')  # torn mid-write
        header, records = Journal.read(path)
        assert len(records) == 1
        assert records[0]["index"] == 0

    def test_no_header_raises(self, tmp_path):
        path = str(tmp_path / "j.json")
        with open(path, "w") as fh:
            fh.write("not json at all\n")
        with pytest.raises(RecoveryError):
            Journal.read(path)

    def test_open_or_resume_fresh_resume_mismatch(self, tmp_path):
        path = str(tmp_path / "j.json")
        header = {"kind": "t", "digest": "d", "inputs": {"u": 1}}
        journal, records = open_or_resume(path, header)
        assert records == []
        journal.append({"type": "tile", "index": 0, "crc": 9})
        journal.close()
        journal, records = open_or_resume(path, header)
        assert len(records) == 1
        journal.close()
        with pytest.raises(RecoveryError):
            open_or_resume(path, {"kind": "t", "digest": "OTHER",
                                  "inputs": {"u": 1}})
        with pytest.raises(RecoveryError):
            open_or_resume(path, {"kind": "t", "digest": "d",
                                  "inputs": {"u": 2}})

    def test_garbage_journal_recreated(self, tmp_path):
        path = str(tmp_path / "j.json")
        with open(path, "w") as fh:
            fh.write("garbage\n")
        journal, records = open_or_resume(
            path, {"kind": "t", "digest": "d", "inputs": {}}
        )
        assert records == []
        journal.close()
        header, _ = Journal.read(path)
        assert header["kind"] == "t"

    def test_last_record_wins(self):
        records = [
            {"type": "tile", "index": 0, "crc": 1},
            {"type": "tile", "index": 0, "crc": 2},
        ]
        assert committed_units(records, "tile")[0]["crc"] == 2

    def test_digest_stable_across_roundtrip(self):
        tiling = _forced_tiling((6, 5, 4), 1, 3)
        assert digest_payload(tiling.to_dict()) == digest_payload(
            TilingPlan.from_dict(tiling.to_dict()).to_dict()
        )

    def test_fingerprint_detects_edits(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal(100)
        fp = fingerprint_array(a)
        b = a.copy()
        b[0] += 1.0
        assert fingerprint_array(b) != fp
        assert fingerprint_array(a.copy()) == fp


# -- complete-or-untouched landing ---------------------------------------------


class TestAtomicLanding:
    def test_out_path_lands_without_partial(self, tmp_path):
        x, u = _case((6, 5, 4), 3, 1)
        out_path = str(tmp_path / "y.bin")
        y = ttm_tiled(x, u, 1, out_path=out_path)
        assert os.path.exists(out_path)
        assert not os.path.exists(partial_path(out_path))
        np.testing.assert_allclose(
            np.asarray(y.data), ttm_oracle(np.asarray(x.data), u, 1)
        )

    def test_failed_run_leaves_no_final_file(self, tmp_path):
        x, u = _case((6, 5, 4), 3, 1)
        out_path = str(tmp_path / "y.bin")
        tiling = _forced_tiling((6, 5, 4), 1, 3)
        assert tiling.n_tiles >= 2
        # A mid-run failure: tile 0 committed, tile 1 dies after writing.
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="tile-commit",
                       tile=1)
            with pytest.raises(InjectedFault):
                execute_tiled(x, u, tiling, out_path=out_path,
                              journal_path=str(tmp_path / "j.json"))
        # Complete-or-untouched: the requested path never holds a torn
        # result; the staging partial is what remains.
        assert not os.path.exists(out_path)
        assert os.path.exists(partial_path(out_path))

    def test_atomic_save_array_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.npy")
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        crc = atomic_save_array(path, arr)
        assert file_checksum(path) == crc
        assert not os.path.exists(partial_path(path))
        np.testing.assert_array_equal(np.load(path), arr)

    @pytest.mark.parametrize("size", [0, 1, (1 << 16) - 1, 1 << 16, 300_001])
    def test_file_checksum_is_the_crc_of_the_whole_file(self, tmp_path, size):
        """Chunk boundaries (the buffer is 64 KiB) never change the CRC."""
        path = tmp_path / "blob"
        payload = np.random.default_rng(size).bytes(size)
        path.write_bytes(payload)
        assert file_checksum(str(path)) == zlib.crc32(payload) & 0xFFFFFFFF

    def test_atomic_save_checksums_without_a_large_buffer(self, tmp_path):
        """Saving a 16 KiB array peaks far below the 1 MiB a whole-chunk
        read allocated for every checksum."""
        arr = np.arange(2048, dtype=np.float64)
        path = str(tmp_path / "a.npy")
        atomic_save_array(str(tmp_path / "warm.npy"), arr)
        tracemalloc.start()
        try:
            crc = atomic_save_array(path, arr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak
        with open(path, "rb") as fh:
            assert crc == zlib.crc32(fh.read()) & 0xFFFFFFFF


# -- satellite: plan-store durability ------------------------------------------


class TestStoreFsync:
    def test_save_counts_fsync(self, tmp_path):
        store = PlanStore(str(tmp_path / "plans.json"), fingerprint="fp")
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            store.save({})
        finally:
            install_hot_counters(previous)
        # One file fsync and one directory fsync, both counted in recovery.
        assert counters.store_fsyncs == 2
        assert counters.as_dict()["store_fsyncs"] == 2


# -- in-process crash and resume -----------------------------------------------


class TestInProcessResume:
    def test_resume_skips_committed_tiles(self, tmp_path):
        shape, j, mode = (8, 6, 5), 4, 1
        x, u = _case(shape, j, mode)
        tiling = _forced_tiling(shape, mode, j)
        assert tiling.n_tiles >= 3
        ref_path = str(tmp_path / "ref.bin")
        execute_tiled(x, u, tiling, out_path=ref_path,
                      journal_path=str(tmp_path / "ref.json"))

        out_path = str(tmp_path / "y.bin")
        journal_path = str(tmp_path / "j.json")
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="tile-commit",
                       tile=1)
            with pytest.raises(InjectedFault):
                execute_tiled(x, u, tiling, out_path=out_path,
                              journal_path=journal_path)
        assert not os.path.exists(out_path)
        committed = committed_units(Journal.read(journal_path)[1], "tile")
        assert set(committed) == {0}

        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            execute_tiled(x, u, tiling, out_path=out_path,
                          journal_path=journal_path)
        finally:
            install_hot_counters(previous)
        assert counters.tiles_resumed == 1
        assert counters.tiles_reverified == 1
        assert counters.journal_commits > 0
        with open(out_path, "rb") as a, open(ref_path, "rb") as b:
            assert a.read() == b.read()

    def test_resume_recomputes_corrupted_tile(self, tmp_path):
        shape, j, mode = (8, 6, 5), 4, 1
        x, u = _case(shape, j, mode)
        tiling = _forced_tiling(shape, mode, j)
        out_path = str(tmp_path / "y.bin")
        journal_path = str(tmp_path / "j.json")
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="tile-commit",
                       tile=2)
            with pytest.raises(InjectedFault):
                execute_tiled(x, u, tiling, out_path=out_path,
                              journal_path=journal_path)
        # Corrupt a committed tile's landed bytes in the partial (tile 0
        # owns the leading rows, right after the npy header): the resume
        # must re-checksum, notice, and recompute it.
        part = partial_path(out_path)
        with open(part, "r+b") as fh:
            fh.seek(200)
            byte = fh.read(1)
            fh.seek(200)
            fh.write(bytes([byte[0] ^ 0xFF]))
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            y = execute_tiled(x, u, tiling, out_path=out_path,
                              journal_path=journal_path)
        finally:
            install_hot_counters(previous)
        assert counters.tiles_reverified > counters.tiles_resumed
        np.testing.assert_allclose(
            np.asarray(y.data), ttm_oracle(np.asarray(x.data), u, mode)
        )

    def test_completed_journal_short_circuits(self, tmp_path):
        x, u = _case((6, 5, 4), 3, 1)
        tiling = _forced_tiling((6, 5, 4), 1, 3)
        out_path = str(tmp_path / "y.bin")
        journal_path = str(tmp_path / "j.json")
        y1 = execute_tiled(x, u, tiling, out_path=out_path,
                           journal_path=journal_path)
        stamp = os.stat(out_path).st_mtime_ns
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            y2 = execute_tiled(x, u, tiling, out_path=out_path,
                               journal_path=journal_path)
        finally:
            install_hot_counters(previous)
        assert counters.tiles_executed == 0
        assert os.stat(out_path).st_mtime_ns == stamp
        np.testing.assert_array_equal(
            np.asarray(y1.data), np.asarray(y2.data)
        )

    def test_journal_for_different_inputs_refuses(self, tmp_path):
        x, u = _case((6, 5, 4), 3, 1, seed=0)
        tiling = _forced_tiling((6, 5, 4), 1, 3)
        journal_path = str(tmp_path / "j.json")
        execute_tiled(x, u, tiling, out_path=str(tmp_path / "y.bin"),
                      journal_path=journal_path)
        x2, u2 = _case((6, 5, 4), 3, 1, seed=99)
        with pytest.raises(RecoveryError):
            execute_tiled(x2, u2, tiling,
                          out_path=str(tmp_path / "y2.bin"),
                          journal_path=journal_path)

    def test_ttm_tiled_adopts_journal_decision(self, tmp_path):
        rng = np.random.default_rng(3)
        shape = (12, 6, 5)
        x = DenseTensor(rng.standard_normal(shape))
        u = rng.standard_normal((4, 6))
        journal_path = str(tmp_path / "j.json")
        out_path = str(tmp_path / "y.bin")
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="tile-commit",
                       tile=0)
            with pytest.raises(InjectedFault):
                ttm_tiled(x, u, 1, budget=500, out_path=out_path,
                          journal_path=journal_path)
        recorded = Journal.read(journal_path)[0]["decision"]
        # Resume under a *different* requested budget: the journal's
        # decision must win, or the committed tiles would be orphaned.
        y = ttm_tiled(x, u, 1, budget=5_000_000, out_path=out_path,
                      journal_path=journal_path)
        assert Journal.read(journal_path)[0]["decision"] == recorded
        np.testing.assert_allclose(
            np.asarray(y.data), ttm_oracle(np.asarray(x.data), u, 1)
        )


    def test_column_major_packed_tiles_verify_and_resume(self, tmp_path):
        # Inner-mode cuts pack every tile.  The commit CRC of a packed
        # column-major tile must equal the one verify and resume read
        # back from the strided output region.
        shape, j, mode = (8, 6, 5), 4, 1
        x, u = _case(shape, j, mode, layout=Layout.COL_MAJOR)
        tiling = _forced_tiling(shape, mode, j, layout=Layout.COL_MAJOR,
                                parts=(2, 1, 2))
        ref_path = str(tmp_path / "ref.bin")
        execute_tiled(x, u, tiling, out_path=ref_path,
                      journal_path=str(tmp_path / "ref.json"))
        report = verify_journal(str(tmp_path / "ref.json"))
        assert report.ok and report.verified == tiling.n_tiles

        out_path = str(tmp_path / "y.bin")
        journal_path = str(tmp_path / "j.json")
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="tile-commit",
                       tile=3)
            with pytest.raises(InjectedFault):
                execute_tiled(x, u, tiling, out_path=out_path,
                              journal_path=journal_path)
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            execute_tiled(x, u, tiling, out_path=out_path,
                          journal_path=journal_path)
        finally:
            install_hot_counters(previous)
        assert counters.tiles_reverified == 3
        assert counters.tiles_resumed == 3
        assert counters.tiles_executed == 1
        with open(out_path, "rb") as a, open(ref_path, "rb") as b:
            assert a.read() == b.read()


# -- property: resume == uninterrupted, across the geometry grid ---------------


_RESUMABLE_CASES = [
    (shape, j, mode) for shape, j, mode in DEFAULT_CASES
    if any(a != mode and e >= 2 for a, e in enumerate(shape))
]


class TestResumeProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        case=st.sampled_from(_RESUMABLE_CASES),
        layout=st.sampled_from([Layout.ROW_MAJOR, Layout.COL_MAJOR]),
        dtype=st.sampled_from(["float64", "float32"]),
        crash_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_resume_after_crash_matches_uninterrupted(
        self, case, layout, dtype, crash_fraction, seed
    ):
        shape, j, mode = case
        x, u = _case(shape, j, mode, layout=layout, dtype=dtype, seed=seed)
        tiling = _forced_tiling(shape, mode, j, layout=layout, dtype=dtype)
        crash_tile = min(
            tiling.n_tiles - 1, int(crash_fraction * tiling.n_tiles)
        )
        with tempfile.TemporaryDirectory() as tmp:
            ref_path = os.path.join(tmp, "ref.bin")
            execute_tiled(x, u, tiling, out_path=ref_path,
                          journal_path=os.path.join(tmp, "ref.json"))
            out_path = os.path.join(tmp, "y.bin")
            journal_path = os.path.join(tmp, "j.json")
            with fault_injection() as faults:
                faults.arm("crash", exc=InjectedFault, site="tile-commit",
                           tile=crash_tile)
                with pytest.raises(InjectedFault):
                    execute_tiled(x, u, tiling, out_path=out_path,
                                  journal_path=journal_path)
            y = execute_tiled(x, u, tiling, out_path=out_path,
                              journal_path=journal_path)
            # Bit-identical to the uninterrupted run...
            with open(out_path, "rb") as a, open(ref_path, "rb") as b:
                assert a.read() == b.read()
            # ...and numerically the oracle's answer.
            np.testing.assert_allclose(
                np.asarray(y.data, dtype=np.float64),
                ttm_oracle(
                    np.asarray(x.data, dtype=np.float64),
                    u.astype(np.float64), mode,
                ),
                rtol=1e-4 if dtype == "float32" else 1e-10,
                atol=1e-4 if dtype == "float32" else 1e-12,
            )


# -- subprocess kill -9 at every crash site ------------------------------------


_KILL_PREAMBLE = """
    import numpy as np
    from repro.tensor.dense import open_memmap_tensor
    from repro.resilience.faults import fault_injection
    rng = np.random.default_rng(7)
"""


class TestSubprocessKill:
    def _setup_ttm(self, tmp_path):
        rng = np.random.default_rng(7)
        x = open_memmap_tensor(str(tmp_path / "x.bin"), "w+",
                               shape=(12, 6, 5), dtype="float64")
        x.data[:] = rng.standard_normal((12, 6, 5))
        x.flush()
        np.save(str(tmp_path / "u.npy"), rng.standard_normal((4, 6)))
        return x

    def _ttm_script(self, arm: str) -> str:
        return _KILL_PREAMBLE + f"""
    from repro.core.tiling import ttm_tiled
    x = open_memmap_tensor("x.bin", "r")
    u = np.load("u.npy")
    with fault_injection() as faults:
        faults.arm({arm})
        ttm_tiled(x, u, 1, budget=500, out_path="y.bin",
                  journal_path="job.json")
    """

    @pytest.mark.parametrize("arm", [
        '"crash", site="tile-commit", tile=3',
        '"crash", site="journal-append", after=2',
    ])
    def test_kill_then_resume_ttm_bit_identical(self, tmp_path, arm):
        x = self._setup_ttm(tmp_path)
        u = np.load(str(tmp_path / "u.npy"))
        ref = ttm_tiled(x, u, 1, budget=500,
                        out_path=str(tmp_path / "ref.bin"),
                        journal_path=str(tmp_path / "ref.json"))
        _run_killed(self._ttm_script(arm), str(tmp_path))
        assert not os.path.exists(str(tmp_path / "y.bin"))
        committed = committed_units(
            Journal.read(str(tmp_path / "job.json"))[1], "tile"
        )
        assert committed, "the kill should land after some commits"
        y = ttm_tiled(x, u, 1, budget=500,
                      out_path=str(tmp_path / "y.bin"),
                      journal_path=str(tmp_path / "job.json"))
        with open(str(tmp_path / "y.bin"), "rb") as a, \
                open(str(tmp_path / "ref.bin"), "rb") as b:
            assert a.read() == b.read()
        np.testing.assert_array_equal(
            np.asarray(y.data), np.asarray(ref.data)
        )

    def test_kill_then_cli_resume_and_verify(self, tmp_path):
        self._setup_ttm(tmp_path)
        _run_killed(
            self._ttm_script('"crash", site="tile-commit", tile=5'),
            str(tmp_path),
        )
        from repro.cli import main

        cwd = os.getcwd()
        os.chdir(str(tmp_path))
        try:
            assert main(["recover", "resume", "job.json"]) == 0
            assert main(["recover", "verify", "job.json"]) == 0
            assert main(["recover", "show", "job.json"]) == 0
        finally:
            os.chdir(cwd)
        report = verify_journal(str(tmp_path / "job.json"),
                                out_path=str(tmp_path / "y.bin"))
        assert report.ok and report.done

    def test_kill_at_sweep_end_then_resume_hooi(self, tmp_path):
        rng = np.random.default_rng(11)
        x = open_memmap_tensor(str(tmp_path / "x.bin"), "w+",
                               shape=(10, 9, 8), dtype="float64")
        x.data[:] = rng.standard_normal((10, 9, 8))
        x.flush()
        ref = hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
                   checkpoint_path=str(tmp_path / "ref.json"))
        script = _KILL_PREAMBLE + """
    from repro.decomp.tucker import hooi
    x = open_memmap_tensor("x.bin", "r")
    with fault_injection() as faults:
        faults.arm("crash", site="sweep-end", sweep=2)
        hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
             checkpoint_path="job.json")
    """
        _run_killed(script, str(tmp_path))
        committed = committed_units(
            Journal.read(str(tmp_path / "job.json"))[1], "sweep",
            key="sweep",
        )
        assert set(committed) == {0, 1}
        result = hooi(x, (3, 3, 3), max_iterations=4, tolerance=0.0,
                      checkpoint_path=str(tmp_path / "job.json"))
        assert result.fit == ref.fit
        assert result.fit_history == ref.fit_history
        assert result.iterations == ref.iterations
        for a, b in zip(result.factors, ref.factors):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            np.asarray(result.core.data), np.asarray(ref.core.data)
        )

    def test_kill_at_chunk_commit_then_resume_stream(self, tmp_path):
        rng = np.random.default_rng(13)
        x_arr = rng.standard_normal((16, 6, 5))
        np.save(str(tmp_path / "x.npy"), x_arr)
        np.save(str(tmp_path / "u.npy"), rng.standard_normal((4, 16)))
        script = _KILL_PREAMBLE + """
    from repro.core.tiling import ttm_stream
    x = np.load("x.npy")
    u = np.load("u.npy")
    chunks = [x[i * 4:(i + 1) * 4] for i in range(4)]
    with fault_injection() as faults:
        faults.arm("crash", site="chunk-commit", chunk=2)
        for _ in ttm_stream(chunks, u, mode=0, axis=0,
                            journal_path="job.json"):
            pass
    """
        _run_killed(script, str(tmp_path))
        u = np.load(str(tmp_path / "u.npy"))
        chunks = [x_arr[i * 4:(i + 1) * 4] for i in range(4)]
        ref = list(ttm_stream(chunks, u, mode=0, axis=0))[-1]
        got = list(
            ttm_stream(chunks, u, mode=0, axis=0,
                       journal_path=str(tmp_path / "job.json"))
        )[-1]
        np.testing.assert_array_equal(
            np.asarray(got.data.data), np.asarray(ref.data.data)
        )


# -- verification and the operator surface -------------------------------------


class TestVerify:
    def _landed_job(self, tmp_path):
        x, u = _case((8, 6, 5), 4, 1)
        tiling = _forced_tiling((8, 6, 5), 1, 4)
        out_path = str(tmp_path / "y.bin")
        journal_path = str(tmp_path / "j.json")
        execute_tiled(x, u, tiling, out_path=out_path,
                      journal_path=journal_path)
        return out_path, journal_path

    def test_verify_clean_result(self, tmp_path):
        out_path, journal_path = self._landed_job(tmp_path)
        report = verify_journal(journal_path)
        assert report.ok and report.done
        assert report.verified == report.total

    def test_verify_flags_single_flipped_byte(self, tmp_path):
        out_path, journal_path = self._landed_job(tmp_path)
        with open(out_path, "r+b") as fh:
            fh.seek(-40, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-40, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x01]))
        report = verify_journal(journal_path)
        assert not report.ok
        assert report.mismatched
        from repro.cli import main

        assert main(["recover", "verify", journal_path]) == 1

    def test_verify_missing_output(self, tmp_path):
        out_path, journal_path = self._landed_job(tmp_path)
        os.remove(out_path)
        report = verify_journal(journal_path)
        assert not report.ok and report.missing

    def test_describe_journal_rows(self, tmp_path):
        _, journal_path = self._landed_job(tmp_path)
        rows = dict(describe_journal(journal_path))
        assert rows["kind"] == "ttm-tiled"
        assert rows["status"] == "complete"

    def test_resume_job_requires_recorded_paths(self, tmp_path):
        # In-RAM operands: no x_path/u_path in the header, so the CLI
        # cannot reconstruct the job and must say so.
        _, journal_path = self._landed_job(tmp_path)
        with pytest.raises(RecoveryError):
            resume_job(journal_path)


# -- streaming cursors ---------------------------------------------------------


class TestStreamCursor:
    def test_committed_chunks_skipped(self, tmp_path):
        rng = np.random.default_rng(5)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 6))
        chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
        journal_path = str(tmp_path / "j.json")
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="chunk-commit",
                       chunk=2)
            seen = []
            with pytest.raises(InjectedFault):
                for chunk in ttm_stream(chunks, u, mode=1, axis=0,
                                        journal_path=journal_path):
                    seen.append((chunk.lo, chunk.hi))
        assert seen == [(0, 3), (3, 6), (6, 9)]  # chunk 2 computed, lost
        resumed = list(
            ttm_stream(chunks, u, mode=1, axis=0,
                       journal_path=journal_path)
        )
        # Chunks 0-1 committed (their successor was pulled); the crash
        # lost chunk 2's commit, so the resume replays from row 6.
        assert [(c.lo, c.hi) for c in resumed] == [(6, 9), (9, 12)]
        oracle = ttm_oracle(x_arr, u, 1)
        for chunk in resumed:
            np.testing.assert_allclose(
                np.asarray(chunk.data.data), oracle[chunk.lo:chunk.hi]
            )
        assert is_done(Journal.read(journal_path)[1])

    def test_diverging_stream_refused(self, tmp_path):
        rng = np.random.default_rng(6)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 6))
        chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
        journal_path = str(tmp_path / "j.json")
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="chunk-commit",
                       chunk=3)
            with pytest.raises(InjectedFault):
                for _ in ttm_stream(chunks, u, mode=1, axis=0,
                                    journal_path=journal_path):
                    pass
        other = [x_arr[i * 4:(i + 1) * 4] for i in range(3)]
        with pytest.raises(RecoveryError):
            list(ttm_stream(other, u, mode=1, axis=0,
                            journal_path=journal_path))

    def test_accumulator_sidecar_resume(self, tmp_path):
        rng = np.random.default_rng(8)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 12))
        chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
        journal_path = str(tmp_path / "j.json")
        ref = list(ttm_stream(chunks, u, mode=0, axis=0))[-1]
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="chunk-commit",
                       chunk=2)
            with pytest.raises(InjectedFault):
                list(ttm_stream(chunks, u, mode=0, axis=0,
                                journal_path=journal_path))
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            got = list(ttm_stream(chunks, u, mode=0, axis=0,
                                  journal_path=journal_path))[-1]
        finally:
            install_hot_counters(previous)
        assert counters.tiles_resumed == 2
        np.testing.assert_array_equal(
            np.asarray(got.data.data), np.asarray(ref.data.data)
        )

    def test_corrupt_sidecar_restarts_cleanly(self, tmp_path):
        rng = np.random.default_rng(9)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 12))
        chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
        journal_path = str(tmp_path / "j.json")
        ref = list(ttm_stream(chunks, u, mode=0, axis=0))[-1]
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="chunk-commit",
                       chunk=2)
            with pytest.raises(InjectedFault):
                list(ttm_stream(chunks, u, mode=0, axis=0,
                                journal_path=journal_path))
        sidecar = f"{journal_path}.accum.npy"
        with open(sidecar, "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            fh.write(b"\xff")
        got = list(ttm_stream(chunks, u, mode=0, axis=0,
                              journal_path=journal_path))[-1]
        # Restarted from scratch (sidecar untrusted) — same bits, since
        # the accumulation order is identical.
        np.testing.assert_array_equal(
            np.asarray(got.data.data), np.asarray(ref.data.data)
        )


    def test_column_major_accumulator_resumes(self, tmp_path):
        # The accumulator takes chunk 0's layout on the fresh run and on
        # the resumed one alike, whatever the layout= argument says.
        rng = np.random.default_rng(10)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 12))
        chunks = [DenseTensor(x_arr[i * 3:(i + 1) * 3], "col")
                  for i in range(4)]
        journal_path = str(tmp_path / "j.json")
        ref = list(ttm_stream(chunks, u, mode=0, axis=0))[-1]
        with fault_injection() as faults:
            faults.arm("crash", exc=InjectedFault, site="chunk-commit",
                       chunk=2)
            with pytest.raises(InjectedFault):
                list(ttm_stream(chunks, u, mode=0, axis=0,
                                journal_path=journal_path))
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            got = list(ttm_stream(chunks, u, mode=0, axis=0,
                                  journal_path=journal_path))[-1]
        finally:
            install_hot_counters(previous)
        assert counters.tiles_resumed == 2
        assert got.data.layout is Layout.COL_MAJOR
        np.testing.assert_array_equal(
            np.asarray(got.data.data), np.asarray(ref.data.data)
        )


# -- HOOI checkpointing --------------------------------------------------------


class TestHooiCheckpoint:
    def test_checkpointed_matches_plain(self, tmp_path):
        rng = np.random.default_rng(2)
        x = DenseTensor(rng.standard_normal((9, 8, 7)))
        plain = hooi(x, (3, 3, 3), max_iterations=5)
        ckpt = hooi(x, (3, 3, 3), max_iterations=5,
                    checkpoint_path=str(tmp_path / "j.json"))
        assert plain.fit == ckpt.fit
        assert plain.fit_history == ckpt.fit_history
        assert plain.iterations == ckpt.iterations

    def test_mismatched_checkpoint_refused(self, tmp_path):
        rng = np.random.default_rng(2)
        x = DenseTensor(rng.standard_normal((9, 8, 7)))
        path = str(tmp_path / "j.json")
        hooi(x, (3, 3, 3), max_iterations=2, checkpoint_path=path)
        with pytest.raises(RecoveryError):
            hooi(x, (4, 4, 4), max_iterations=2, checkpoint_path=path)

    def test_verify_hooi_checkpoint(self, tmp_path):
        rng = np.random.default_rng(2)
        x = DenseTensor(rng.standard_normal((9, 8, 7)))
        path = str(tmp_path / "j.json")
        hooi(x, (3, 3, 3), max_iterations=3, tolerance=0.0,
             checkpoint_path=path)
        report = verify_journal(path)
        assert report.ok and report.done
        with open(f"{path}.state.npz", "r+b") as fh:
            fh.seek(-8, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-8, os.SEEK_END)
            fh.write(bytes([byte[0] ^ 0x01]))
        assert not verify_journal(path).ok


# -- checksums -----------------------------------------------------------------


class TestChecksums:
    def test_region_checksum_layout_insensitive_content(self):
        rng = np.random.default_rng(4)
        c_arr = rng.standard_normal((6, 5))
        assert region_checksum(c_arr) == region_checksum(c_arr.copy())
        strided = np.ascontiguousarray(c_arr[::2])
        assert region_checksum(c_arr[::2]) == region_checksum(strided)

    def test_single_bit_flip_changes_crc(self):
        arr = np.zeros(64)
        before = region_checksum(arr)
        view = arr.view(np.uint8)
        view[100] ^= 0x01
        assert region_checksum(arr) != before

    def test_strided_region_sums_like_its_packed_copy(self):
        rng = np.random.default_rng(5)
        for order in ("C", "F"):
            arr = np.array(rng.standard_normal((6, 5, 4)), order=order)
            region = arr[1:4, 1:3, 1:3]
            packed = np.array(region, order=order)
            assert region_checksum(region) == region_checksum(packed)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_strided_crc_equals_copy_based_crc(self, order, dtype):
        """Run by run or packed, a strided region's CRC is the CRC of its
        copy in memory order."""

        def copy_crc(region):
            packed = region.copy(order="K")
            if not packed.flags["C_CONTIGUOUS"]:
                packed = packed.T
            return zlib.crc32(packed) & 0xFFFFFFFF

        rng = np.random.default_rng(6)
        shape = (12, 40, 64) if order == "C" else (64, 40, 12)
        arr = np.array(rng.standard_normal(shape), dtype=dtype, order=order)
        regions = [
            arr[2:10, 8:24, :] if order == "C" else arr[:, 8:24, 2:10],
            arr[:, 3:5, :],
            arr[1:7, 2:9, 5:60],
            arr[::2, :, ::3],
            arr[:, ::-1, :],
        ]
        for region in regions:
            assert not region.flags["C_CONTIGUOUS"]
            assert not region.flags["F_CONTIGUOUS"]
            assert region_checksum(region) == copy_crc(region)
        # The first region's contiguous runs are long: no copy is made.
        tracemalloc.start()
        try:
            region_checksum(regions[0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < regions[0].nbytes // 2


# -- journals in the on-disk format of earlier builds --------------------------


def _write_journal(path, header, records):
    """Write a journal line by line, spelling every field out."""
    with open(path, "w") as fh:
        for line in [header, *records]:
            fh.write(json.dumps(line, sort_keys=True) + "\n")


class TestEarlierFormatJournals:
    """Journals hand-written in the schema-1 format resume unchanged.

    Header fields: ``type``, ``kind``, ``digest``, ``decision``,
    ``inputs``, ``schema``, plus ``out_path``/``x_path``/``u_path`` for a
    tiled job and ``state_path`` for an accumulating stream.  Records:
    ``{"type": "tile", "index", "crc"}`` and ``{"type": "chunk", "chunk",
    "lo", "hi", "crc"}``.
    """

    def test_schema_is_one(self):
        assert JOURNAL_SCHEMA == 1

    def test_tiled_job_resumes_verifies_and_describes(self, tmp_path):
        rng = np.random.default_rng(21)
        shape, j, mode = (12, 6, 5), 4, 1
        x_path = str(tmp_path / "x.bin")
        x = open_memmap_tensor(x_path, "w+", shape=shape, dtype="float64")
        x.data[:] = rng.standard_normal(shape)
        x.flush()
        u = rng.standard_normal((j, shape[mode]))
        tiling = _forced_tiling(shape, mode, j)
        ref = execute_tiled(x, u, tiling, out_path=str(tmp_path / "ref.bin"))
        ref_data = np.array(ref.data)

        out_path = str(tmp_path / "y.bin")
        journal_path = str(tmp_path / "job.json")
        u_path = journal_path + ".u.npy"
        np.save(u_path, u)
        # The partial holds tiles 0 and 1; the rest never landed.
        part = open_memmap_tensor(partial_path(out_path), "w+",
                                  shape=tiling.out_shape, dtype="float64")
        specs = list(tiling.tiles())
        records = []
        for spec in specs[:2]:
            part.data[spec.out_slices] = ref_data[spec.out_slices]
            records.append({"type": "tile", "index": spec.index,
                            "crc": region_checksum(
                                ref_data[spec.out_slices])})
        part.flush()
        del part
        _write_journal(journal_path, {
            "type": "header",
            "kind": "ttm-tiled",
            "digest": digest_payload(tiling.to_dict()),
            "decision": tiling.to_dict(),
            "inputs": {"x": fingerprint_tensor(x), "u": fingerprint_array(u)},
            "out_path": out_path,
            "x_path": x_path,
            "u_path": u_path,
            "schema": 1,
        }, records)

        rows = dict(describe_journal(journal_path))
        assert rows["kind"] == "ttm-tiled"
        assert rows["tiles committed"] == f"2 / {tiling.n_tiles}"
        assert rows["status"] == "interrupted (resumable)"
        report = verify_journal(journal_path)
        assert report.ok and report.verified == 2 and not report.done

        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            result = resume_job(journal_path)
        finally:
            install_hot_counters(previous)
        assert result["out_path"] == out_path
        assert counters.tiles_resumed == 2
        assert counters.tiles_executed == tiling.n_tiles - 2
        np.testing.assert_array_equal(np.load(out_path), ref_data)
        report = verify_journal(journal_path)
        assert report.ok and report.done
        assert report.verified == tiling.n_tiles
        assert dict(describe_journal(journal_path))["status"] == "complete"

    @staticmethod
    def _stream_header(u, mode, axis, state_path=None):
        decision = {"mode": mode, "axis": axis, "j": int(u.shape[0]),
                    "layout": "ROW_MAJOR"}
        header = {
            "type": "header",
            "kind": "ttm-stream",
            "digest": digest_payload(decision),
            "decision": decision,
            "inputs": {"u": fingerprint_array(u)},
            "schema": 1,
        }
        if state_path is not None:
            header["state_path"] = state_path
        return header

    def test_yielding_stream_resumes(self, tmp_path):
        rng = np.random.default_rng(22)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 6))
        chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
        ref = list(ttm_stream(chunks, u, mode=1, axis=0))
        journal_path = str(tmp_path / "j.json")
        _write_journal(journal_path, self._stream_header(u, 1, 0), [
            {"type": "chunk", "chunk": i, "lo": 3 * i, "hi": 3 * i + 3,
             "crc": region_checksum(ref[i].data.data)}
            for i in range(2)
        ])
        assert dict(describe_journal(journal_path))["chunks committed"] \
            == "2"
        got = list(ttm_stream(chunks, u, mode=1, axis=0,
                              journal_path=journal_path))
        assert [(c.lo, c.hi) for c in got] == [(6, 9), (9, 12)]
        for chunk, want in zip(got, ref[2:]):
            np.testing.assert_array_equal(chunk.data.data, want.data.data)
        report = verify_journal(journal_path)
        assert report.ok and report.done and report.verified == 4
        with pytest.raises(RecoveryError, match="re-invoking ttm_stream"):
            resume_job(journal_path)

    def test_accumulating_stream_resumes(self, tmp_path):
        rng = np.random.default_rng(23)
        x_arr = rng.standard_normal((12, 6, 5))
        u = rng.standard_normal((4, 12))
        chunks = [x_arr[i * 3:(i + 1) * 3] for i in range(4)]
        ref = list(ttm_stream(chunks, u, mode=0, axis=0))[-1]
        journal_path = str(tmp_path / "j.json")
        state_path = journal_path + ".accum.npy"
        records = []
        for i in range(2):
            # The accumulator after chunks 0..i: the same k-split over
            # the leading columns of U.
            partial = list(ttm_stream(chunks[:i + 1], u[:, :3 * (i + 1)],
                                      mode=0, axis=0))[-1]
            np.save(state_path, partial.data.data)
            records.append({"type": "chunk", "chunk": i, "lo": 3 * i,
                            "hi": 3 * i + 3,
                            "crc": file_checksum(state_path)})
        _write_journal(journal_path,
                       self._stream_header(u, 0, 0, state_path), records)
        report = verify_journal(journal_path)
        assert report.ok and report.target == state_path
        counters = HotCounters()
        previous = install_hot_counters(counters)
        try:
            got = list(ttm_stream(chunks, u, mode=0, axis=0,
                                  journal_path=journal_path))
        finally:
            install_hot_counters(previous)
        assert counters.tiles_resumed == 2
        assert counters.stream_chunks == 2
        assert len(got) == 1
        np.testing.assert_array_equal(got[0].data.data, ref.data.data)
        assert verify_journal(journal_path).done
        assert dict(describe_journal(journal_path))["state_path"] \
            == state_path
