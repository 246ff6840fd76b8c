"""Tests for the LRU result cache and its JSON persistence."""

import json

import pytest

from repro.exceptions import ServiceError
from repro.mqo.generator import generate_paper_testcase
from repro.mqo.problem import MQOProblem
from repro.service.cache import ResultCache
from repro.service.jobs import SolveRequest


def _entry(index: int) -> dict:
    return {"best_cost": float(index), "winner": "CLIMB"}


class TestCoreOperations:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", _entry(1))
        assert cache.get("k") == _entry(1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_values_are_copied(self):
        cache = ResultCache()
        value = _entry(1)
        cache.put("k", value)
        value["best_cost"] = -1.0
        fetched = cache.get("k")
        assert fetched["best_cost"] == 1.0
        fetched["winner"] = "X"
        assert cache.get("k")["winner"] == "CLIMB"

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", _entry(1))
        cache.put("b", _entry(2))
        assert cache.get("a") is not None  # refresh "a": "b" becomes LRU
        cache.put("c", _entry(3))
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_invalid_capacity_and_value(self):
        with pytest.raises(ServiceError):
            ResultCache(capacity=0)
        with pytest.raises(ServiceError):
            ResultCache().put("k", "not-a-dict")

    def test_clear(self):
        cache = ResultCache()
        cache.put("k", _entry(1))
        cache.clear()
        assert len(cache) == 0


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.put("a", _entry(1))
        cache.put("b", _entry(2))
        cache.save()

        warmed = ResultCache(path=path)
        assert len(warmed) == 2
        assert warmed.get("a") == _entry(1)
        assert warmed.get("b") == _entry(2)

    def test_save_requires_some_path(self):
        with pytest.raises(ServiceError):
            ResultCache().save()
        with pytest.raises(ServiceError):
            ResultCache().load()

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ServiceError):
            ResultCache().load(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format_version": 99, "entries": []}))
        with pytest.raises(ServiceError):
            ResultCache().load(path)

    def test_load_respects_capacity(self, tmp_path):
        path = tmp_path / "cache.json"
        big = ResultCache(path=path, capacity=8)
        for index in range(8):
            big.put(f"k{index}", _entry(index))
        big.save()
        small = ResultCache(capacity=3, path=path)
        assert len(small) == 3
        # The most recently written entries survive.
        assert "k7" in small and "k5" in small
        assert "k0" not in small


class _FakeClock:
    """Manually advanced timestamp source for TTL tests."""

    def __init__(self, now=0.0):
        self.now = now

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestAtomicSave:
    def test_save_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.put("a", _entry(1))
        cache.save()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]

    def test_save_preserves_target_permissions(self, tmp_path):
        import os

        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.put("a", _entry(1))
        cache.save()
        os.chmod(path, 0o664)  # e.g. group-shared cache file
        cache.put("b", _entry(2))
        cache.save()
        # The atomic temp-and-replace must not clamp the file to the
        # temp file's private 0600 mode.
        assert os.stat(path).st_mode & 0o777 == 0o664

    def test_crash_mid_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.json"
        cache = ResultCache(path=path)
        cache.put("a", _entry(1))
        cache.save()

        cache.put("b", _entry(2))

        def exploding_replace(src, dst):
            raise OSError("disk went away mid-rename")

        monkeypatch.setattr("repro.service.cache.os.replace", exploding_replace)
        with pytest.raises(OSError):
            cache.save()
        monkeypatch.undo()

        # The previous store is intact and parseable, and the aborted
        # attempt left no temp file behind.
        survivor = ResultCache(path=path)
        assert len(survivor) == 1
        assert survivor.get("a") == _entry(1)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.json"]


class TestExpiry:
    def test_invalid_ttl_rejected(self):
        with pytest.raises(ServiceError):
            ResultCache(ttl_seconds=0)

    def test_entry_expires_into_a_miss(self):
        clock = _FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        cache.put("k", _entry(1))
        clock.advance(9.0)
        assert cache.get("k") == _entry(1)
        clock.advance(2.0)  # now 11 s after the put
        assert cache.get("k") is None
        assert cache.stats.expirations == 1
        assert "k" not in cache  # dropped, not just hidden

    def test_put_refreshes_age(self):
        clock = _FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        cache.put("k", _entry(1))
        clock.advance(8.0)
        cache.put("k", _entry(2))
        clock.advance(8.0)  # 16 s after first put, 8 s after refresh
        assert cache.get("k") == _entry(2)

    def test_contains_and_len_honour_ttl(self):
        clock = _FakeClock()
        cache = ResultCache(ttl_seconds=10.0, clock=clock)
        cache.put("old", _entry(1))
        clock.advance(6.0)
        cache.put("new", _entry(2))
        clock.advance(6.0)  # "old" expired, "new" still live; no get() ran
        assert "old" not in cache
        assert "new" in cache
        assert len(cache) == 1

    def test_purge_expired(self):
        clock = _FakeClock()
        cache = ResultCache(ttl_seconds=5.0, clock=clock)
        cache.put("old", _entry(1))
        clock.advance(6.0)
        cache.put("new", _entry(2))
        assert cache.purge_expired() == 1
        assert "old" not in cache and "new" in cache

    def test_ttl_survives_persistence(self, tmp_path):
        path = tmp_path / "cache.json"
        clock = _FakeClock()
        writer = ResultCache(path=path, ttl_seconds=10.0, clock=clock)
        writer.put("early", _entry(1))
        clock.advance(8.0)
        writer.put("late", _entry(2))
        writer.save()

        clock.advance(4.0)  # "early" is now 12 s old, "late" 4 s
        warmed = ResultCache(ttl_seconds=10.0, clock=clock)
        assert warmed.load(path) == 1
        assert warmed.get("early") is None
        assert warmed.get("late") == _entry(2)
        assert warmed.stats.expirations == 1

    def test_legacy_file_without_timestamps_loads_fresh(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "entries": [{"key": "a", "value": _entry(1)}],
                }
            )
        )
        cache = ResultCache(ttl_seconds=10.0)
        assert cache.load(path) == 1
        assert cache.get("a") == _entry(1)


class TestCacheKeys:
    def test_key_ignores_names_but_not_plan_order(self):
        savings = {(0, 2): 0.5, (1, 3): 4.5}
        problem = MQOProblem([[1.0, 5.0], [2.0, 3.0]], savings)
        renamed = MQOProblem([[1.0, 5.0], [2.0, 3.0]], savings, name="renamed")
        # Query 0's plans swapped: the same structure, other plan indices.
        reordered = MQOProblem([[5.0, 1.0], [2.0, 3.0]], {(1, 2): 0.5, (0, 3): 4.5})
        assert reordered.canonical_hash() == problem.canonical_hash()
        key = SolveRequest(problem=problem, seed=1).cache_key()
        assert SolveRequest(problem=renamed, seed=1).cache_key() == key
        assert SolveRequest(problem=reordered, seed=1).cache_key() != key

    def test_key_depends_on_solver_budget_and_seed(self):
        problem = generate_paper_testcase(5, 2, seed=3)
        base = SolveRequest(problem=problem, seed=1).cache_key()
        assert SolveRequest(problem=problem, seed=2).cache_key() != base
        assert (
            SolveRequest(problem=problem, seed=1, solver="CLIMB").cache_key() != base
        )
        assert (
            SolveRequest(problem=problem, seed=1, time_budget_ms=9.0).cache_key()
            != base
        )
