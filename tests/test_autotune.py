"""Tests for the persistent autotune plan cache and its session wrapper.

Covers the contract stated in the module docs: a second call for an
identical signature performs no estimator/tuner work; corrupt, stale or
foreign store files are detected, counted as invalidations and degrade
to the estimator path; refinement promotes only measured winners.
"""

import json
import os

import numpy as np
import pytest

from repro.autotune import (
    AutotuneSession,
    PlanCache,
    PlanKey,
    PlanStore,
    default_cache_path,
    plan_digest,
)
from repro.autotune.store import CACHE_PATH_ENV
from repro.core import SCHEMA_VERSION, InTensLi
from repro.core.inttm import default_plan
from repro.perf.profiler import track_hot_path
from repro.tensor.generate import random_tensor
from repro.tensor.layout import ROW_MAJOR
from repro.testing import ttm_reference
from repro.util.errors import (
    CacheError,
    FingerprintMismatchError,
    PlanError,
    SchemaMismatchError,
    StoreCorruptError,
)

SHAPE = (6, 7, 8, 9)
MODE = 1
J = 4


@pytest.fixture
def cache_path(tmp_path):
    return str(tmp_path / "plans.json")


def make_session(cache_path, **kwargs):
    return AutotuneSession(InTensLi(), path=cache_path, **kwargs)


def inputs(shape=SHAPE, j=J, mode=MODE):
    x = random_tensor(shape, seed=3)
    u = np.random.default_rng(5).standard_normal((j, shape[mode]))
    return x, u


class TestSessionCaching:
    def test_first_call_estimates_then_caches(self, cache_path):
        session = make_session(cache_path)
        x, u = inputs()
        with track_hot_path() as counters:
            y = session.ttm(x, u, MODE)
        assert counters.estimator_runs == 1
        assert counters.plan_cache_misses == 1
        np.testing.assert_allclose(y.data, ttm_reference(x, u, MODE).data)

    def test_second_call_is_pure_cache_hit(self, cache_path):
        """Acceptance: identical key -> zero estimator/tuner work."""
        session = make_session(cache_path)
        x, u = inputs()
        session.ttm(x, u, MODE)
        with track_hot_path() as counters:
            y = session.ttm(x, u, MODE)
        assert counters.estimator_runs == 0
        assert counters.tuner_sweeps == 0
        assert counters.plan_cache_hits == 1
        assert counters.plan_cache_misses == 0
        np.testing.assert_allclose(y.data, ttm_reference(x, u, MODE).data)

    def test_fresh_session_hits_disk_cache(self, cache_path):
        x, u = inputs()
        make_session(cache_path).ttm(x, u, MODE)
        reborn = make_session(cache_path)  # simulates a new process
        with track_hot_path() as counters:
            reborn.ttm(x, u, MODE)
        assert counters.estimator_runs == 0
        assert counters.plan_cache_hits == 1

    def test_distinct_signatures_get_distinct_entries(self, cache_path):
        session = make_session(cache_path)
        x, u = inputs()
        session.ttm(x, u, MODE)
        session.ttm(x, np.vstack([u, u]), MODE)  # different J
        assert len(session.cache) == 2

    def test_attached_intensli_plan_shares_the_cache(self, cache_path):
        session = make_session(cache_path)
        session.plan(SHAPE, MODE, J)
        with track_hot_path() as counters:
            plan = session.lib.plan(SHAPE, MODE, J)
        assert counters.estimator_runs == 0
        assert counters.plan_cache_hits == 1
        assert plan == session.cache.peek(session.key_for(SHAPE, MODE, J)).plan

    def test_warm_reports_only_new_signatures(self, cache_path):
        session = make_session(cache_path)
        sigs = [(SHAPE, MODE, J), ((5, 5, 5), 0, 2)]
        assert session.warm(sigs) == 2
        assert session.warm(sigs) == 0
        assert len(session.cache) == 2

    def test_tune_writes_through_with_tuned_source(self, cache_path):
        session = make_session(cache_path)
        x, u = inputs(shape=(4, 4, 4), j=2, mode=0)
        with track_hot_path() as counters:
            session.lib.tune(x, u, 0, min_seconds=0.001)
        assert counters.tuner_sweeps == 1
        entry = session.cache.peek(session.key_for((4, 4, 4), 0, 2))
        assert entry is not None
        assert entry.source == "tuned"

    def test_default_path_respects_env(self, monkeypatch, tmp_path):
        override = str(tmp_path / "override.json")
        monkeypatch.setenv(CACHE_PATH_ENV, override)
        assert default_cache_path() == override
        monkeypatch.delenv(CACHE_PATH_ENV)
        assert default_cache_path().endswith(os.path.join("repro", "plans.json"))


class TestOnePlanCache:
    """A facade keeps every decision in one cache; pins survive attaching."""

    SIG = ((16, 16, 16), 0, 4)

    def pinned(self):
        return default_plan(*self.SIG, ROW_MAJOR, degree=1)

    def key(self, lib):
        return PlanKey.make(*self.SIG, ROW_MAJOR, lib.max_threads)

    def store_cache(self, tmp_path):
        return PlanCache(
            store=PlanStore(str(tmp_path / "store.json")), autosave=False
        )

    def loaded_lib(self, tmp_path):
        from repro.core.serialize import save_plans

        pinned = self.pinned()
        assert InTensLi().plan(*self.SIG) != pinned
        path = tmp_path / "pinned.json"
        save_plans([pinned], str(path))
        lib = InTensLi()
        assert lib.load_plan_cache(str(path)) == 1
        return lib, pinned

    def test_loaded_plan_survives_attach(self, tmp_path):
        lib, pinned = self.loaded_lib(tmp_path)
        cache = self.store_cache(tmp_path)
        lib.attach_plan_cache(cache)
        with track_hot_path() as counters:
            assert lib.plan(*self.SIG) == pinned
        assert counters.estimator_runs == 0
        assert cache.peek(self.key(lib)).source == "tuned"
        assert lib.plan_cache is cache

    def test_pinned_plan_wins_over_attached_estimator_entry(self, tmp_path):
        lib, pinned = self.loaded_lib(tmp_path)
        cache = self.store_cache(tmp_path)
        estimated = InTensLi().plan(*self.SIG)
        cache.put(self.key(lib), estimated, source="estimator")
        lib.attach_plan_cache(cache)
        assert lib.plan(*self.SIG) == pinned

    def test_attached_pinned_entry_is_kept(self, tmp_path):
        lib, pinned = self.loaded_lib(tmp_path)
        cache = self.store_cache(tmp_path)
        theirs = default_plan(*self.SIG, ROW_MAJOR, degree=0)
        cache.put(self.key(lib), theirs, source="measured", seconds=1e-6)
        lib.attach_plan_cache(cache)
        assert lib.plan(*self.SIG) == theirs

    def test_tuned_plan_survives_attach(self, tmp_path):
        lib = InTensLi()
        x, u = inputs(shape=(4, 4, 4), j=2, mode=0)
        best = lib.tune(x, u, 0, min_seconds=0.001)
        lib.attach_plan_cache(self.store_cache(tmp_path))
        with track_hot_path() as counters:
            assert lib.plan((4, 4, 4), 0, 2) == best
        assert counters.estimator_runs == 0

    def test_session_wrapping_serves_loaded_plans(self, tmp_path, cache_path):
        lib, pinned = self.loaded_lib(tmp_path)
        session = AutotuneSession(lib, path=cache_path)
        with track_hot_path() as counters:
            assert session.plan(*self.SIG) == pinned
            assert lib.plan(*self.SIG) == pinned
        assert counters.estimator_runs == 0
        assert session.cache.peek(session.key_for(*self.SIG)).source == "tuned"
        # The pin reached the store: a new process is served it too.
        reborn = make_session(cache_path)
        assert reborn.plan(*self.SIG) == pinned

    def test_facade_hit_counts_hot_counters_only(self):
        lib = InTensLi()
        cache = lib.plan_cache
        assert cache.path is None  # memory-only: no store file, no stamp
        x, u = inputs()
        with track_hot_path() as counters:
            lib.ttm(x, u, MODE)
            lib.ttm(x, u, MODE)
            lib.plan(x.shape, MODE, J)
        assert counters.plan_cache_misses == 1
        assert counters.plan_cache_hits == 2
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    def test_lock_free_hits_under_concurrent_planners(self):
        """Every plan call counts one hit or one miss and gets its plan."""
        import sys
        import threading

        lib = InTensLi()
        sigs = [((6, 7, 8), mode, j) for mode in range(3) for j in (2, 3)]
        threads, per_thread = 8, 150
        barrier = threading.Barrier(threads)
        wrong = []

        def planner(offset):
            barrier.wait()
            for i in range(per_thread):
                shape, mode, j = sigs[(offset + i) % len(sigs)]
                plan = lib.plan(shape, mode, j)
                if (plan.shape, plan.mode, plan.j) != (shape, mode, j):
                    wrong.append(plan)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with track_hot_path() as counters:
                pool = [
                    threading.Thread(target=planner, args=(t,))
                    for t in range(threads)
                ]
                for t in pool:
                    t.start()
                for t in pool:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in pool)
        assert wrong == []
        total = counters.plan_cache_hits + counters.plan_cache_misses
        assert total == threads * per_thread
        assert counters.plan_cache_misses == lib.plan_cache.stats.misses
        assert len(lib.plan_cache) == len(sigs)


class TestPlanKey:
    def test_is_the_plain_signature_tuple(self):
        key = PlanKey.make(SHAPE, MODE, J, ROW_MAJOR, 4, "float32")
        plain = (SHAPE, MODE, J, ROW_MAJOR, 4, "float32")
        assert key == plain and hash(key) == hash(plain)
        assert {key: 1}[plain] == 1

    def test_encode_decode_roundtrip(self):
        key = PlanKey.make(SHAPE, MODE, J, ROW_MAJOR, 4)
        assert PlanKey.decode(key.encode()) == key

    @pytest.mark.parametrize("text", ["", "6x6", "6x6|m1|J4", "a|b|c|d|e"])
    def test_decode_rejects_malformed(self, text):
        with pytest.raises(PlanError):
            PlanKey.decode(text)


class TestFailureModes:
    """Acceptance: bad store files fall back to the estimator path."""

    def corrupt_and_reopen(self, cache_path, text):
        with open(cache_path, "w") as fh:
            fh.write(text)
        return make_session(cache_path)

    def seeded_path(self, cache_path):
        x, u = inputs()
        make_session(cache_path).ttm(x, u, MODE)
        return x, u

    def test_corrupted_json_invalidates_and_recovers(self, cache_path):
        x, u = self.seeded_path(cache_path)
        with track_hot_path() as counters:
            session = self.corrupt_and_reopen(cache_path, "{not json!")
            assert session.cache.stats.invalidations == 1
            assert len(session.cache) == 0
            y = session.ttm(x, u, MODE)
        assert counters.plan_cache_invalidations == 1
        assert counters.estimator_runs == 1  # estimator path, not a crash
        np.testing.assert_allclose(y.data, ttm_reference(x, u, MODE).data)

    def test_half_written_store_is_treated_as_corrupt(self, cache_path):
        """A reader racing a non-atomic writer sees a truncated file."""
        x, u = self.seeded_path(cache_path)
        full = open(cache_path).read()
        session = self.corrupt_and_reopen(cache_path, full[: len(full) // 2])
        assert session.cache.stats.invalidations == 1
        y = session.ttm(x, u, MODE)
        np.testing.assert_allclose(y.data, ttm_reference(x, u, MODE).data)

    def test_schema_mismatch_invalidates(self, cache_path):
        x, u = self.seeded_path(cache_path)
        payload = json.load(open(cache_path))
        payload["schema"] = SCHEMA_VERSION + 1
        json.dump(payload, open(cache_path, "w"))
        session = make_session(cache_path)
        assert session.cache.stats.invalidations == 1
        assert len(session.cache) == 0

    def test_foreign_fingerprint_invalidates(self, cache_path):
        x, u = self.seeded_path(cache_path)
        payload = json.load(open(cache_path))
        payload["fingerprint"] = "deadbeefdeadbeef"
        json.dump(payload, open(cache_path, "w"))
        session = make_session(cache_path)
        assert session.cache.stats.invalidations == 1
        with track_hot_path() as counters:
            session.ttm(x, u, MODE)
        assert counters.estimator_runs == 1

    def test_malformed_entry_invalidates(self, cache_path):
        self.seeded_path(cache_path)
        payload = json.load(open(cache_path))
        key = next(iter(payload["entries"]))
        payload["entries"][key] = {"no_plan_here": True}
        json.dump(payload, open(cache_path, "w"))
        assert make_session(cache_path).cache.stats.invalidations == 1

    def test_illegal_plan_payload_invalidates(self, cache_path):
        self.seeded_path(cache_path)
        payload = json.load(open(cache_path))
        key = next(iter(payload["entries"]))
        payload["entries"][key]["plan"]["component_modes"] = [0, 9]
        json.dump(payload, open(cache_path, "w"))
        assert make_session(cache_path).cache.stats.invalidations == 1

    def test_store_raises_typed_errors(self, cache_path):
        store = PlanStore(cache_path, fingerprint="aaaa")
        with open(cache_path, "w") as fh:
            fh.write("][")
        with pytest.raises(StoreCorruptError):
            store.load()
        json.dump({"schema": 999, "entries": {}}, open(cache_path, "w"))
        with pytest.raises(SchemaMismatchError):
            store.load()
        json.dump(
            {"schema": SCHEMA_VERSION, "fingerprint": "bbbb", "entries": {}},
            open(cache_path, "w"),
        )
        with pytest.raises(FingerprintMismatchError):
            store.load()
        for exc in (StoreCorruptError, SchemaMismatchError,
                    FingerprintMismatchError):
            assert issubclass(exc, CacheError)

    def test_unstamped_file_loads_anywhere(self, cache_path):
        writer = PlanCache(
            path=cache_path, fingerprint="machine-a", autosave=True
        )
        writer.put(
            PlanKey.make((5, 5, 5), 0, 2, ROW_MAJOR, 1),
            default_plan((5, 5, 5), 0, 2, ROW_MAJOR),
        )
        payload = json.load(open(cache_path))
        payload["fingerprint"] = None  # portable, geometry-only cache
        json.dump(payload, open(cache_path, "w"))
        reader = PlanCache(path=cache_path, fingerprint="machine-b")
        assert len(reader) == 1
        assert reader.stats.invalidations == 0


class TestAtomicSave:
    def test_save_leaves_no_temp_files(self, cache_path):
        session = make_session(cache_path)
        x, u = inputs()
        for _ in range(3):
            session.ttm(x, u, MODE)
            session.save()
        leftovers = [
            f for f in os.listdir(os.path.dirname(cache_path))
            if f != os.path.basename(cache_path)
        ]
        assert leftovers == []

    def test_save_creates_parent_directories(self, tmp_path):
        nested = str(tmp_path / "a" / "b" / "plans.json")
        cache = PlanCache(path=nested, fingerprint="x")
        cache.put(
            PlanKey.make((5, 5, 5), 0, 2, ROW_MAJOR, 1),
            default_plan((5, 5, 5), 0, 2, ROW_MAJOR),
        )
        assert os.path.exists(nested)

    def test_clear_removes_file_and_entries(self, cache_path):
        session = make_session(cache_path)
        session.plan(SHAPE, MODE, J)
        assert os.path.exists(cache_path)
        assert session.cache.clear() == 1
        assert not os.path.exists(cache_path)
        assert len(session.cache) == 0


class TestLegacyStore:
    def test_schema4_calibration_section_loads_then_drops(self, cache_path):
        """Stores written while the calibration tier existed carry a
        ``calibration`` section: their entries load unchanged, and the
        next save drops the section but keeps every entry."""
        writer = PlanCache(path=cache_path, fingerprint="fp", autosave=True)
        key = PlanKey.make((5, 5, 5), 0, 2, ROW_MAJOR, 1)
        plan = default_plan((5, 5, 5), 0, 2, ROW_MAJOR)
        writer.put(key, plan)
        payload = json.load(open(cache_path))
        assert payload["schema"] == 4 == SCHEMA_VERSION
        payload["calibration"] = {
            "record": {"version": 1, "thresholds": {"1": [4096, 262144]}},
            "observations": [{"shape": [5, 5, 5], "seconds": 1e-5}],
        }
        json.dump(payload, open(cache_path, "w"))
        entries = payload["entries"]

        reader = PlanCache(path=cache_path, fingerprint="fp")
        assert reader.stats.invalidations == 0
        assert len(reader) == 1
        assert reader.peek(key).plan == plan
        reader.save()
        saved = json.load(open(cache_path))
        assert "calibration" not in saved
        assert saved["entries"] == entries


class _ScriptedSession(AutotuneSession):
    """Refinement with deterministic fake timings (no wall-clock flake)."""

    def __init__(self, *args, timings=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.timings = timings or {}
        self.measured = []

    def _measure(self, plan, x, u):
        self.measured.append(plan_digest(plan))
        return self.timings.get(plan_digest(plan), 1.0)


class TestRefinement:
    def scripted(self, cache_path, incumbent_s, alternate_s, **kwargs):
        session = _ScriptedSession(
            InTensLi(), path=cache_path, refine=True, **kwargs
        )
        from repro.core.tuner import enumerate_plans

        incumbent = session.plan(SHAPE, MODE, J)
        key = session.key_for(SHAPE, MODE, J)
        alternates = [
            p for p in enumerate_plans(SHAPE, MODE, J, ROW_MAJOR)
            if plan_digest(p) != plan_digest(incumbent)
        ]
        assert alternates, "test shape must admit >1 legal configuration"
        session.timings = {plan_digest(incumbent): incumbent_s}
        for alt in alternates:
            session.timings[plan_digest(alt)] = alternate_s
        return session, key, incumbent

    def test_measured_winner_is_promoted(self, cache_path):
        session, key, incumbent = self.scripted(cache_path, 1.0, 0.2)
        x, u = inputs()
        y = session.ttm(x, u, MODE)
        entry = session.cache.peek(key)
        assert entry.source == "measured"
        assert entry.plan != incumbent
        assert entry.seconds == 0.2
        assert session.cache.stats.promotions == 1
        np.testing.assert_allclose(y.data, ttm_reference(x, u, MODE).data)

    def test_promotion_survives_restart(self, cache_path):
        session, key, _ = self.scripted(cache_path, 1.0, 0.2)
        x, u = inputs()
        session.ttm(x, u, MODE)
        promoted = session.cache.peek(key).plan
        reborn = make_session(cache_path)
        assert reborn.plan(SHAPE, MODE, J) == promoted

    def test_within_margin_alternates_are_not_promoted(self, cache_path):
        session, key, incumbent = self.scripted(
            cache_path, 1.0, 0.97, refine_margin=0.05
        )
        x, u = inputs()
        session.ttm(x, u, MODE)
        entry = session.cache.peek(key)
        assert entry.plan == incumbent
        assert session.cache.stats.promotions == 0
        assert len(entry.trials) >= 2  # evidence recorded all the same

    def test_refinement_stops_when_space_is_exhausted(self, cache_path):
        session, key, _ = self.scripted(cache_path, 1.0, 0.9)
        x, u = inputs()
        for _ in range(4):
            session.ttm(x, u, MODE)
        before = len(session.measured)
        session.ttm(x, u, MODE)
        assert len(session.measured) == before  # nothing left to try

    def test_refine_trials_zero_only_times_incumbent(self, cache_path):
        session, key, incumbent = self.scripted(
            cache_path, 1.0, 0.1, refine_trials=0
        )
        x, u = inputs()
        session.ttm(x, u, MODE)
        assert session.measured == [plan_digest(incumbent)]
        assert session.cache.stats.promotions == 0

    def test_real_refinement_executes_correctly(self, cache_path):
        """Unscripted end-to-end: real timings, result stays correct."""
        session = make_session(cache_path, refine=True, min_seconds=0.0005)
        x, u = inputs()
        for _ in range(3):
            y = session.ttm(x, u, MODE)
        np.testing.assert_allclose(y.data, ttm_reference(x, u, MODE).data)
        entry = session.cache.peek(session.key_for(SHAPE, MODE, J))
        assert len(entry.trials) >= 2


class TestCacheCli:
    def run(self, argv):
        from repro.cli import main

        return main(argv)

    def test_warm_show_clear_cycle(self, cache_path, capsys):
        assert self.run(
            ["cache", "warm", "6x7x8", "1", "4", "8", "--path", cache_path]
        ) == 0
        out = capsys.readouterr().out
        assert "2 new" in out
        assert self.run(["cache", "show", "--path", cache_path]) == 0
        out = capsys.readouterr().out
        assert "entries      2" in out
        assert "6x7x8|m1|J4|ROW_MAJOR|T1" in out
        assert self.run(["cache", "clear", "--path", cache_path]) == 0
        assert "removed" in capsys.readouterr().out
        assert not os.path.exists(cache_path)
        assert self.run(["cache", "clear", "--path", cache_path]) == 0
        assert "no cache" in capsys.readouterr().out

    def test_show_flags_invalidated_store(self, cache_path, capsys):
        with open(cache_path, "w") as fh:
            fh.write("{broken")
        assert self.run(["cache", "show", "--path", cache_path]) == 0
        assert "INVALIDATED" in capsys.readouterr().out
