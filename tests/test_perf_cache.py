"""Cache-simulator tests: LRU semantics, hierarchy, prefetcher model."""

import numpy as np
import pytest

from repro.model.cache import CacheHierarchy, CacheLevel, CacheSimResult
from repro.model.machine import CacheLevelSpec, MachineSpec


def level(capacity=256, line=64, assoc=2, name="L1"):
    return CacheLevel(CacheLevelSpec(name, capacity, line, assoc, 10.0))


class TestCacheLevel:
    def test_cold_miss_then_hit(self):
        lv = level()
        assert lv.access(5) is False
        assert lv.access(5) is True
        assert lv.misses == 1 and lv.accesses == 2

    def test_lru_eviction_within_set(self):
        # assoc=2: third distinct line in one set evicts the LRU one
        lv = level(capacity=256, assoc=2)  # 2 sets
        nsets = lv.n_sets
        a, b, c = 0, nsets, 2 * nsets  # same set index
        lv.access(a)
        lv.access(b)
        lv.access(c)  # evicts a
        assert [lv.access(x) for x in (b, c, a)] == [True, True, False]

    def test_mru_protected(self):
        lv = level(capacity=256, assoc=2)
        nsets = lv.n_sets
        a, b, c = 0, nsets, 2 * nsets
        lv.access(a)
        lv.access(b)
        lv.access(a)  # a becomes MRU
        lv.access(c)  # evicts b
        assert [lv.access(x) for x in (a, b)] == [True, False]

    def test_different_sets_independent(self):
        lv = level(capacity=256, assoc=2)
        lv.access(0)
        lv.access(1)  # different set
        assert [lv.access(x) for x in (0, 1)] == [True, True]

    def test_flush(self):
        lv = level()
        lv.access(3)
        lv.flush()
        assert lv.accesses == 0
        assert lv.access(3) is False

    def test_install_no_count(self):
        lv = level()
        lv.install(9)
        assert lv.accesses == 0 and lv.misses == 0
        assert lv.access(9) is True


class TestCacheSimResult:
    def test_add(self):
        a = CacheSimResult(("L1",), (10,), (3,))
        b = CacheSimResult(("L1",), (5,), (2,))
        c = a + b
        assert c.accesses == (15,) and c.misses == (5,)

    def test_add_mismatched_raises(self):
        a = CacheSimResult(("L1",), (1,), (1,))
        b = CacheSimResult(("L2",), (1,), (1,))
        with pytest.raises(ValueError):
            a + b

    def test_misses_by_name(self):
        r = CacheSimResult(("L1", "L2"), (10, 4), (4, 2))
        assert r.misses_by_name() == {"L1": 4, "L2": 2}


def two_level(prefetch=False, **kw):
    return CacheHierarchy(
        (
            CacheLevelSpec("L1", 512, 64, 2, 10.0),
            CacheLevelSpec("L2", 4096, 64, 4, 25.0),
        ),
        prefetch=prefetch,
        **kw,
    )


class TestHierarchyNoPrefetch:
    def test_inclusive_walk(self):
        h = two_level()
        r = h.simulate(np.array([0, 0, 64 * 100, 0]))
        assert r.misses_by_name()["L1"] == 2
        # the repeated 0 hit L1 the 2nd and 4th time... (4th: 0 still in L1)
        assert r.accesses[0] == 4
        assert r.accesses[1] == 2  # only L1 misses reach L2

    def test_l2_absorbs_l1_evictions(self):
        h = two_level()
        # cycle 3 lines through one L1 set (assoc 2) - L2 (assoc 4) holds all
        nsets = h.levels[0].n_sets
        lines = np.array([0, nsets, 2 * nsets] * 10) * 64
        r = h.simulate(lines)
        assert r.misses_by_name()["L2"] == 3  # compulsory only

    def test_warm_state_across_calls(self):
        h = two_level()
        h.simulate(np.array([0]))
        r2 = h.simulate(np.array([0]))
        assert r2.misses_by_name()["L1"] == 0

    def test_flush_cold_restart(self):
        h = two_level()
        h.simulate(np.array([0]))
        h.flush()
        r = h.simulate(np.array([0]))
        assert r.misses_by_name()["L1"] == 1

    def test_per_call_counters_isolated(self):
        h = two_level()
        # 8 lines exactly fill the 4x2 L1: the second pass is all hits
        r1 = h.simulate(np.arange(8) * 64)
        r2 = h.simulate(np.arange(8) * 64)
        assert r1.misses_by_name()["L1"] == 8
        assert r2.misses_by_name()["L1"] == 0

    def test_monotone_in_cache_size(self, rng):
        """Fundamental sanity: a larger L1 never misses more (same assoc
        ratio, LRU inclusion property holds per set count scaling)."""
        addrs = rng.integers(0, 1 << 14, 5000) * 8
        small = CacheHierarchy((CacheLevelSpec("L1", 512, 64, 8, 1.0),), prefetch=False)
        big = CacheHierarchy((CacheLevelSpec("L1", 4096, 64, 8, 1.0),), prefetch=False)
        ms = small.simulate(addrs).misses_by_name()["L1"]
        mb = big.simulate(addrs).misses_by_name()["L1"]
        assert mb <= ms

    def test_simulate_series(self):
        h = two_level()
        results = [h.simulate(t) for t in (np.array([0]), np.array([0]), np.array([64]))]
        assert [r.misses_by_name()["L1"] for r in results] == [1, 0, 1]

    def test_sub_line_addresses_share_line(self):
        h = two_level()
        r = h.simulate(np.array([0, 8, 16, 56]))
        assert r.misses_by_name()["L1"] == 1

    def test_rejects_empty_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy(())


class TestPrefetcher:
    def test_stream_absorbed_at_l2(self):
        h = two_level(prefetch=True)
        # long sequential stream: L1 still misses per line, L2 misses
        # only during stream establishment
        addrs = np.arange(512) * 64
        r = h.simulate(addrs)
        assert r.misses_by_name()["L1"] == 512
        assert r.misses_by_name()["L2"] < 20

    def test_no_prefetch_l2_misses_stream(self):
        h = two_level(prefetch=False)
        addrs = np.arange(512) * 64
        r = h.simulate(addrs)
        assert r.misses_by_name()["L2"] == 512

    def test_random_unaffected_by_prefetcher(self, rng):
        addrs = rng.integers(0, 1 << 16, 2000) * 64
        r1 = two_level(prefetch=True, prefetch_contention=0).simulate(addrs)
        r2 = two_level(prefetch=False).simulate(addrs)
        # random traffic establishes (almost) no streams
        assert abs(r1.misses_by_name()["L2"] - r2.misses_by_name()["L2"]) < 50

    def test_prefetched_lines_installed(self):
        h = two_level(prefetch=True)
        addrs = np.arange(64) * 64
        h.simulate(addrs)
        # a recent stream line is resident in L2 without being demanded
        assert h.levels[1].access(60) is True

    def test_contention_drops_streams(self, rng):
        """Irregular traffic interleaved with a stream must produce more
        stream demand misses when the contention model is on."""
        stream = np.arange(2048) * 64
        noise = rng.integers(1 << 20, 1 << 24, 2048) * 64
        inter = np.column_stack([stream, noise]).ravel()
        with_c = two_level(prefetch=True, prefetch_contention=2).simulate(inter)
        without = two_level(prefetch=True, prefetch_contention=0).simulate(inter)
        assert (
            with_c.misses_by_name()["L2"] > without.misses_by_name()["L2"] + 100
        )

    def test_flush_clears_streams(self):
        h = two_level(prefetch=True)
        h.simulate(np.arange(64) * 64)
        h.flush()
        r = h.simulate(np.arange(64, 128) * 64)
        # stream must re-establish: first lines miss L2
        assert r.misses_by_name()["L2"] >= 2

    def test_machine_spec_constructor(self):
        h = CacheHierarchy(MachineSpec.tiny_test())
        assert h.level_names == ("L1", "L2")
