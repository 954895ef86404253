"""Unit tests for the set-associative cache model."""

import pytest

from repro.cpu.machine import Machine
from repro.errors import ConfigError
from repro.mem.cache import Cache


def small_cache(ways: int = 2, sets: int = 4, line: int = 64) -> Cache:
    return Cache("test", size_bytes=ways * sets * line, ways=ways, line_size=line)


class TestGeometry:
    def test_set_count(self):
        assert small_cache(ways=2, sets=4).sets == 4

    def test_non_power_of_two_sets_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", size_bytes=3 * 64 * 2, ways=2)

    def test_non_power_of_two_line_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", size_bytes=1024, ways=2, line_size=48)

    def test_indivisible_size_rejected(self):
        with pytest.raises(ConfigError):
            Cache("bad", size_bytes=1000, ways=2, line_size=64)


class TestAccess:
    def test_first_access_misses(self):
        cache = small_cache()
        assert cache.access(0x40) is False

    def test_second_access_hits(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.access(0x40) is True

    def test_same_line_different_bytes_hit(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.access(0x7F) is True

    def test_adjacent_lines_are_distinct(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.access(0x80) is False

    def test_stats(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        cache.access(64)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.accesses == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_stats_reset(self):
        cache = small_cache()
        cache.access(0)
        cache.stats.reset()
        assert cache.stats.accesses == 0


class TestEviction:
    def test_lru_eviction_within_set(self):
        cache = small_cache(ways=2, sets=4)
        stride = 4 * 64  # same set, different tags
        cache.access(0 * stride)
        cache.access(1 * stride)
        cache.access(2 * stride)  # evicts the first
        assert not cache.contains(0 * stride)
        assert cache.contains(1 * stride)
        assert cache.contains(2 * stride)
        assert cache.stats.evictions == 1

    def test_touch_refreshes_lru(self):
        cache = small_cache(ways=2, sets=4)
        stride = 4 * 64
        cache.access(0 * stride)
        cache.access(1 * stride)
        cache.access(0 * stride)  # refresh
        cache.access(2 * stride)  # evicts 1, not 0
        assert cache.contains(0)
        assert not cache.contains(1 * stride)

    def test_different_sets_do_not_interfere(self):
        cache = small_cache(ways=1, sets=4)
        cache.access(0 * 64)
        cache.access(1 * 64)
        assert cache.contains(0)
        assert cache.contains(64)


class TestFlush:
    def test_flush_line(self):
        cache = small_cache()
        cache.access(0x40)
        assert cache.flush_line(0x40) is True
        assert not cache.contains(0x40)

    def test_flush_absent_line(self):
        assert small_cache().flush_line(0x40) is False

    def test_flush_all(self):
        cache = small_cache()
        for i in range(8):
            cache.access(i * 64)
        cache.flush_all()
        assert cache.occupancy == 0

    def test_contains_does_not_touch_stats(self):
        cache = small_cache()
        cache.access(0)
        before = cache.stats.accesses
        cache.contains(0)
        assert cache.stats.accesses == before


class TestLazySets:
    """Sets are allocated on first touch; behaviour is that of eager sets."""

    def test_fresh_cache_holds_no_sets(self):
        assert len(small_cache()._lines) == 0

    def test_fresh_machine_levels_hold_no_sets(self):
        hierarchy = Machine(seed=1).core.hierarchy
        for level in (hierarchy.l1, hierarchy.l2, hierarchy.l3):
            assert len(level._lines) == 0, level.name

    def test_probes_of_untouched_sets_allocate_nothing(self):
        cache = small_cache()
        assert not cache.contains(0x40)
        assert cache.flush_line(0x80) is False
        assert cache.flush_line(0x80) is False
        assert len(cache._lines) == 0
        assert cache.stats.flushes == 2

    def test_access_allocates_only_its_set(self):
        cache = small_cache(ways=2, sets=4)
        cache.access(3 * 64)
        assert list(cache._lines) == [3]

    def test_overflowing_a_set_keeps_lru_order_and_counts(self):
        cache = small_cache(ways=2, sets=4)
        stride = 4 * 64  # every address below maps to set 0
        for tag in (0, 1, 0, 2, 3, 2):
            cache.access(tag * stride)
        # 0,1 miss; 0 hits; 2 evicts 1; 3 evicts 0; 2 hits.
        assert (cache.stats.hits, cache.stats.misses) == (2, 4)
        assert cache.stats.evictions == 2
        assert [cache.contains(t * stride) for t in range(4)] == [
            False, False, True, True,
        ]
        assert list(cache._lines[0]) == [3 * stride // 64, 2 * stride // 64]  # LRU first
        cache.access(64)  # set 1
        assert cache.occupancy == 3
        assert cache.flush_line(3 * stride) is True
        assert cache.occupancy == 2
        cache.flush_all()
        assert cache.occupancy == 0
        assert not cache.contains(2 * stride)
        assert cache.access(2 * stride) is False
