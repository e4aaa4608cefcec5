"""Tests for the content-addressed sweep result cache and hashing."""

import os
import shutil
import threading
from pathlib import Path

from repro.sweep.cache import CacheStats, SweepCache
from repro.sweep.hashing import hash_json, hash_trace_bundle
from repro.trace.events import TraceEvent
from repro.trace.kineto import KinetoTrace, TraceBundle

BUNDLE_HASH = "b" * 64
SCENARIO_HASH = "s" * 64


def _result_payload(time_us: float = 1234.5) -> dict:
    return {"label": "2x2x8", "kind": "parallelism", "target": "2x2x8",
            "whatif": None, "world_size": 32, "iteration_time_us": time_us,
            "base_time_us": 2000.0, "affected_tasks": 0}


class TestSweepCache:
    def test_miss_on_empty_cache(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        assert cache.lookup(BUNDLE_HASH, SCENARIO_HASH) is None
        assert cache.stats.misses == 1
        assert cache.stats.hits == 0

    def test_store_then_lookup(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        assert cache.lookup(BUNDLE_HASH, SCENARIO_HASH) == _result_payload()
        assert cache.stats.hits == 1

    def test_different_scenario_hash_misses(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        assert cache.lookup(BUNDLE_HASH, "t" * 64) is None

    def test_different_bundle_hash_misses(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        assert cache.lookup("c" * 64, SCENARIO_HASH) is None

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        entry = next((tmp_path / "cache").glob("*/*.json"))
        entry.write_text("{truncated", encoding="utf-8")
        assert cache.lookup(BUNDLE_HASH, SCENARIO_HASH) is None

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        entry = next((tmp_path / "cache").glob("*/*.json"))
        entry.write_text('{"schema": 999, "result": {}}', encoding="utf-8")
        assert cache.lookup(BUNDLE_HASH, SCENARIO_HASH) is None

    def test_entries_and_clear(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        cache.store(BUNDLE_HASH, "t" * 64, _result_payload(999.0))
        assert cache.entries() == 2
        assert cache.clear() == 2
        assert cache.entries() == 0

    def test_stats_properties(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.lookups == 4
        assert stats.hit_rate == 0.75
        assert CacheStats().hit_rate == 0.0

    def test_partially_deleted_bundle_dir_is_a_miss(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        shutil.rmtree(next((tmp_path / "cache").iterdir()))
        assert cache.lookup(BUNDLE_HASH, SCENARIO_HASH) is None
        assert cache.stats.misses == 1

    def test_store_leaves_no_temp_files_behind(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        cache.store(BUNDLE_HASH, SCENARIO_HASH, _result_payload())
        bucket = (tmp_path / "cache") / BUNDLE_HASH[:32]
        assert [p.name for p in bucket.iterdir()] == [f"{SCENARIO_HASH[:32]}.json"]


class TestConcurrentWriters:
    def test_racing_writers_never_produce_a_torn_entry(self, tmp_path):
        """Concurrent store() + lookup() of one entry: hit or miss, never junk.

        Before atomic writes this raced: a reader could observe a
        partially written JSON file.  With tmp-file + ``os.replace``
        every lookup sees either nothing or one complete payload.
        """
        root = tmp_path / "cache"
        payloads = [_result_payload(float(value)) for value in range(8)]
        stop = threading.Event()
        failures: list[str] = []

        def writer(payload: dict) -> None:
            cache = SweepCache(root)
            while not stop.is_set():
                cache.store(BUNDLE_HASH, SCENARIO_HASH, payload)

        def reader() -> None:
            cache = SweepCache(root)
            while not stop.is_set():
                found = cache.lookup(BUNDLE_HASH, SCENARIO_HASH)
                if found is not None and found not in payloads:
                    failures.append(repr(found))

        threads = [threading.Thread(target=writer, args=(payload,))
                   for payload in payloads]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        stop.wait(0.5)
        stop.set()
        for thread in threads:
            thread.join()
        assert not failures
        # The surviving entry is one of the writers' payloads, intact.
        final = SweepCache(root).lookup(BUNDLE_HASH, SCENARIO_HASH)
        assert final in payloads
        # No temp droppings remain visible to entry accounting.
        cache = SweepCache(root)
        assert cache.entries() == 1
        assert cache.disk_stats()["entries"] == 1

    def test_concurrent_writers_to_distinct_entries(self, tmp_path):
        root = tmp_path / "cache"

        def fill(index: int) -> None:
            cache = SweepCache(root)
            for position in range(10):
                scenario = f"{index}{position}".ljust(64, "f")
                cache.store(BUNDLE_HASH, scenario, _result_payload(float(position)))

        threads = [threading.Thread(target=fill, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert SweepCache(root).entries() == 40


class TestDiskStatsAndPrune:
    def _fill(self, root, bundles: int = 2, per_bundle: int = 3) -> SweepCache:
        cache = SweepCache(root)
        for bundle in range(bundles):
            for scenario in range(per_bundle):
                cache.store(str(bundle) * 64, f"{bundle}{scenario}".ljust(64, "a"),
                            _result_payload(float(scenario)))
        return cache

    def test_disk_stats_counts_entries_bundles_and_bytes(self, tmp_path):
        cache = self._fill(tmp_path / "cache")
        stats = cache.disk_stats()
        assert stats["entries"] == 6
        assert stats["bundles"] == 2
        assert stats["total_bytes"] > 0
        assert stats["root"] == str(tmp_path / "cache")

    def test_disk_stats_on_missing_root(self, tmp_path):
        stats = SweepCache(tmp_path / "never-created").disk_stats()
        assert stats == {"root": str(tmp_path / "never-created"), "entries": 0,
                         "bundles": 0, "total_bytes": 0}

    def test_prune_to_zero_removes_everything(self, tmp_path):
        cache = self._fill(tmp_path / "cache")
        summary = cache.prune(0)
        assert summary["removed"] == 6
        assert summary["remaining_entries"] == 0
        assert summary["remaining_bytes"] == 0
        assert cache.entries() == 0
        # Empty bucket directories are removed along with their entries.
        assert list((tmp_path / "cache").iterdir()) == []

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = SweepCache(tmp_path / "cache")
        for index, age in enumerate((100, 50, 10)):  # older = smaller mtime
            cache.store(BUNDLE_HASH, str(index) * 64, _result_payload(float(index)))
            path = cache._entry_path(BUNDLE_HASH, str(index) * 64)
            os.utime(path, (1_000_000 - age, 1_000_000 - age))
        entry_size = cache._entry_path(BUNDLE_HASH, "0" * 64).stat().st_size
        summary = cache.prune(2 * entry_size)
        assert summary["removed"] == 1
        # The oldest entry (stored first, mtime farthest back) is gone;
        # the two younger survive.
        assert cache.lookup(BUNDLE_HASH, "0" * 64) is None
        assert cache.lookup(BUNDLE_HASH, "1" * 64) is not None
        assert cache.lookup(BUNDLE_HASH, "2" * 64) is not None

    def test_prune_counts_an_entry_deleted_underneath_as_evicted(self, tmp_path,
                                                                monkeypatch):
        cache = SweepCache(tmp_path / "cache")
        for index, age in enumerate((100, 50, 10)):  # older = smaller mtime
            cache.store(BUNDLE_HASH, str(index) * 64, _result_payload(float(index)))
            path = cache._entry_path(BUNDLE_HASH, str(index) * 64)
            os.utime(path, (1_000_000 - age, 1_000_000 - age))
        oldest = cache._entry_path(BUNDLE_HASH, "0" * 64)
        sizes = [cache._entry_path(BUNDLE_HASH, str(index) * 64).stat().st_size
                 for index in range(3)]
        unlink = Path.unlink

        def raced(path, *args, **kwargs):
            if path == oldest:
                # Another process evicts the oldest entry first.
                unlink(path)
                raise FileNotFoundError(str(path))
            return unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", raced)
        summary = cache.prune(sizes[1] + sizes[2])
        # The vanished entry freed the budget: nothing younger is evicted.
        assert summary == {"removed": 1, "freed_bytes": sizes[0],
                           "remaining_entries": 2,
                           "remaining_bytes": sizes[1] + sizes[2]}
        assert cache.lookup(BUNDLE_HASH, "1" * 64) is not None
        assert cache.lookup(BUNDLE_HASH, "2" * 64) is not None

    def test_prune_within_budget_is_a_noop(self, tmp_path):
        cache = self._fill(tmp_path / "cache")
        before = cache.disk_stats()
        summary = cache.prune(before["total_bytes"] + 1)
        assert summary["removed"] == 0
        assert summary["remaining_entries"] == before["entries"]
        assert cache.disk_stats() == before


class TestHashing:
    def test_hash_json_is_order_insensitive(self):
        assert hash_json({"a": 1, "b": 2}) == hash_json({"b": 2, "a": 1})

    def test_hash_json_differs_on_content(self):
        assert hash_json({"a": 1}) != hash_json({"a": 2})

    def _bundle(self, duration: float = 5.0) -> TraceBundle:
        event = TraceEvent(name="kernel", cat="kernel", ts=0.0,
                           dur=duration, pid=0, tid=0)
        bundle = TraceBundle()
        bundle.add(KinetoTrace(rank=0, events=[event]))
        return bundle

    def test_bundle_hash_is_deterministic(self):
        assert hash_trace_bundle(self._bundle()) == hash_trace_bundle(self._bundle())

    def test_bundle_hash_sees_event_changes(self):
        assert hash_trace_bundle(self._bundle(5.0)) != hash_trace_bundle(self._bundle(6.0))

    def test_bundle_hash_survives_disk_roundtrip(self, tmp_path):
        bundle = self._bundle()
        bundle.save(tmp_path / "bundle")
        reloaded = TraceBundle.load(tmp_path / "bundle")
        assert hash_trace_bundle(reloaded) == hash_trace_bundle(bundle)
