"""Tests for the CLOCK-based LRU structure."""

import pytest

from repro.cache.clock_lru import ClockLRU
from repro.exceptions import CacheError


class TestBasics:
    def test_insert_and_get(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        assert "a" in lru
        assert lru.get("a") == 1
        assert len(lru) == 1

    def test_get_missing_returns_none(self):
        assert ClockLRU().get("missing") is None

    def test_overwrite_updates_value(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        lru.insert("a", 2)
        assert lru.get("a") == 2
        assert len(lru) == 1

    def test_touch_missing_raises(self):
        with pytest.raises(CacheError):
            ClockLRU().touch("ghost")

    def test_remove(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        assert lru.remove("a") == 1
        assert "a" not in lru
        assert lru.remove("a") is None

    def test_items(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        lru.insert("b", 2)
        assert dict(lru.items()) == {"a": 1, "b": 2}


class TestEviction:
    def test_evict_empty_returns_none(self):
        assert ClockLRU().evict() is None

    def test_evicts_unreferenced_before_referenced(self):
        lru = ClockLRU()
        for key in ("a", "b", "c"):
            lru.insert(key, key)
        # First sweep clears all bits; touching "a" and "c" afterwards makes
        # "b" the only unreferenced entry.
        lru.evict()  # evicts one entry after clearing bits (CLOCK behaviour)
        survivors = [key for key, _ in lru.items()]
        assert len(survivors) == 2

    def test_recently_touched_survive_longer(self):
        lru = ClockLRU()
        for i in range(8):
            lru.insert(f"k{i}", i)
        # Clear everything once so reference bits start cleared.
        evicted_first = lru.evict()[0]
        hot = "k7" if evicted_first != "k7" else "k6"
        lru.touch(hot)
        evicted = [lru.evict()[0] for _ in range(5)]
        assert hot not in evicted

    def test_evict_all(self):
        lru = ClockLRU()
        for i in range(10):
            lru.insert(f"k{i}", i)
        evicted = []
        while True:
            victim = lru.evict()
            if victim is None:
                break
            evicted.append(victim[0])
        assert sorted(evicted) == sorted(f"k{i}" for i in range(10))
        assert len(lru) == 0

    def test_eviction_after_removals(self):
        lru = ClockLRU()
        for i in range(5):
            lru.insert(f"k{i}", i)
        lru.remove("k1")
        lru.remove("k3")
        evicted = {lru.evict()[0] for _ in range(3)}
        assert evicted == {"k0", "k2", "k4"}
        assert lru.evict() is None

    def test_reinsert_after_evict(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        lru.evict()
        lru.insert("a", 2)
        assert lru.get("a") == 2


class TestReinsertAfterRemove:
    """Regression: remove() leaves a lazy ring slot; re-inserting the same
    key must revive that slot, not append a duplicate."""

    def test_no_duplicate_entry(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        lru.remove("a")
        lru.insert("a", 2)
        assert len(lru) == 1
        assert [key for key, _ in lru.items()] == ["a"]
        assert lru.keys_mru_to_lru() == ["a"]

    def test_items_yield_each_key_once_with_latest_value(self):
        lru = ClockLRU()
        for key in ("a", "b", "c"):
            lru.insert(key, 1)
        lru.remove("b")
        lru.insert("b", 99)
        assert dict(lru.items()) == {"a": 1, "b": 99, "c": 1}
        assert len(list(lru.items())) == 3

    def test_eviction_drains_without_duplicates(self):
        lru = ClockLRU()
        for cycle in range(3):
            lru.insert("x", cycle)
            lru.remove("x")
        lru.insert("x", 3)
        lru.insert("y", 4)
        evicted = []
        while True:
            victim = lru.evict()
            if victim is None:
                break
            evicted.append(victim[0])
        assert sorted(evicted) == ["x", "y"]
        assert len(lru) == 0

    def test_reinserted_key_counts_as_referenced(self):
        lru = ClockLRU()
        lru.insert("a", 1)
        lru.insert("b", 2)
        lru.remove("a")
        lru.insert("a", 3)
        # Both entries referenced: a full clearing sweep then one eviction
        # must leave exactly one entry, and the survivor must be intact.
        lru.evict()
        assert len(lru) == 1
        survivor, value = next(iter(lru.items()))
        assert (survivor, value) in {("a", 3), ("b", 2)}


class TestMruOrdering:
    def test_keys_mru_to_lru_prioritises_referenced(self):
        lru = ClockLRU()
        for key in ("a", "b", "c", "d"):
            lru.insert(key, 1)
        # Force one sweep so every reference bit is cleared, then touch two.
        lru.evict()
        remaining = [key for key, _ in lru.items()]
        touched = remaining[:2]
        for key in touched:
            lru.touch(key)
        ordering = lru.keys_mru_to_lru()
        assert ordering[: len(touched)] == touched

    def test_ordering_contains_exactly_current_keys(self):
        lru = ClockLRU()
        for key in ("a", "b", "c"):
            lru.insert(key, 1)
        lru.remove("b")
        assert sorted(lru.keys_mru_to_lru()) == ["a", "c"]
