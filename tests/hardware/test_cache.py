"""Tests for the cache simulator, including the exact-vs-analytic property."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.cache import (
    CacheConfig,
    CacheHierarchy,
    CacheLevel,
    cyclic_steady_state,
)


def _tiny(name="T", size=1024, line=64, ways=2):
    return CacheConfig(name, size, line, ways)


class TestCacheConfig:
    def test_geometry(self):
        cfg = CacheConfig("L1", 48 * 1024, 64, 12)
        assert cfg.n_sets == 64
        assert cfg.capacity_lines == 768

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 1000, 64, 2)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 3 * 64 * 2, 64, 2)  # 3 sets

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            CacheConfig("X", 0, 64, 2)

    def test_set_index_masks_low_bits(self):
        cfg = _tiny()  # 8 sets
        assert list(cfg.set_index(np.array([0, 7, 8, 15]))) == [0, 7, 0, 7]


class TestCacheLevelTrace:
    def test_cold_misses_then_hits(self):
        level = CacheLevel(_tiny())
        trace = [0, 1, 0, 1]
        hits = level.simulate_trace(trace)
        assert list(hits) == [False, False, True, True]

    def test_lru_eviction_order(self):
        # 2-way set: third distinct line in one set evicts the LRU one.
        level = CacheLevel(_tiny())  # 8 sets, 2-way
        t = [0, 8, 16]  # all map to set 0
        level.simulate_trace(t)
        hits = level.simulate_trace([0])  # line 0 was LRU -> evicted
        assert not hits[0]
        hits = level.simulate_trace([16])
        assert hits[0]

    def test_touch_refreshes_recency(self):
        level = CacheLevel(_tiny())
        level.simulate_trace([0, 8])  # set 0 holds {0, 8}
        level.simulate_trace([0])  # refresh 0 -> 8 becomes LRU
        level.simulate_trace([16])  # evicts 8
        assert level.simulate_trace([0])[0]
        assert not level.simulate_trace([8])[0]

    def test_reset(self):
        level = CacheLevel(_tiny())
        level.simulate_trace([0, 1, 2])
        level.reset()
        assert level.resident_lines() == 0
        assert not level.simulate_trace([0])[0]

    def test_state_persists_across_calls(self):
        level = CacheLevel(_tiny())
        level.simulate_trace([3])
        assert level.simulate_trace([3])[0]


class TestCyclicSteadyState:
    def test_fitting_working_set_all_hits(self):
        cfg = _tiny()  # capacity 16 lines
        lines = np.arange(16)
        hits, misses = cyclic_steady_state(lines, cfg)
        assert hits == 16 and misses == 0

    def test_overfull_set_all_miss(self):
        cfg = _tiny()  # 8 sets, 2 ways
        lines = np.array([0, 8, 16])  # 3 lines in set 0 > 2 ways
        hits, misses = cyclic_steady_state(lines, cfg)
        assert hits == 0 and misses == 3

    def test_mixed_sets(self):
        cfg = _tiny()
        lines = np.array([0, 8, 16, 1])  # set 0 overfull, set 1 fits
        hits, misses = cyclic_steady_state(lines, cfg)
        assert hits == 1 and misses == 3

    def test_duplicate_lines_rejected(self):
        with pytest.raises(ValueError):
            cyclic_steady_state(np.array([1, 1]), _tiny())

    def test_empty(self):
        assert cyclic_steady_state(np.zeros(0, dtype=np.int64), _tiny()) == (0, 0)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 4), st.integers(1, 64))
    def test_property_matches_exact_lru_simulation(self, seed, ways, n_lines):
        """The closed form equals the exact simulator once warm (the result
        the whole data-cache benchmark's analytic engine rests on)."""
        rng = np.random.default_rng(seed)
        n_sets = int(2 ** rng.integers(0, 4))
        cfg = CacheConfig("P", n_sets * 64 * ways, 64, ways)
        lines = rng.choice(4096, size=n_lines, replace=False).astype(np.int64)
        order = rng.permutation(n_lines)
        trace_one_pass = lines[order]

        level = CacheLevel(cfg)
        # Warm up two passes, measure the third.
        level.simulate_trace(np.tile(trace_one_pass, 2))
        exact_hits = int(level.simulate_trace(trace_one_pass).sum())
        analytic_hits, analytic_misses = cyclic_steady_state(lines, cfg)
        assert exact_hits == analytic_hits
        assert n_lines - exact_hits == analytic_misses


class TestCacheHierarchy:
    def _hier(self):
        return CacheHierarchy(
            [
                CacheConfig("L1", 4 * 64 * 2, 64, 2),  # 8 lines capacity
                CacheConfig("L2", 16 * 64 * 2, 64, 2),  # 32 lines capacity
            ]
        )

    def test_requires_levels(self):
        with pytest.raises(ValueError):
            CacheHierarchy([])

    def test_mixed_line_sizes_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                [CacheConfig("A", 1024, 64, 2), CacheConfig("B", 1024, 128, 2)]
            )

    def test_misses_propagate(self):
        h = self._hier()
        counts = h.simulate_trace(np.arange(8))
        assert counts.level("L1").misses == 8  # cold
        assert counts.level("L2").accesses == 8

    def test_small_set_hits_l1_steady(self):
        h = self._hier()
        lines = np.arange(8)
        counts = h.cyclic_steady_state(lines)
        assert counts.level("L1").hits == 8
        assert counts.level("L2").accesses == 0
        assert counts.memory_accesses == 0
        assert counts.survivors.size == 0

    def test_medium_set_hits_l2_steady(self):
        h = self._hier()
        lines = np.arange(32)  # > L1 (8), fits L2 (32)
        counts = h.cyclic_steady_state(lines)
        assert counts.level("L1").hits == 0
        assert counts.level("L2").hits == 32
        assert counts.memory_accesses == 0

    def test_large_set_misses_everywhere(self):
        h = self._hier()
        lines = np.arange(64)
        counts = h.cyclic_steady_state(lines)
        assert counts.memory_accesses == 64
        assert set(counts.survivors) == set(range(64))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 80))
    def test_property_hierarchy_analytic_matches_exact(self, seed, n_lines):
        rng = np.random.default_rng(seed)
        h = self._hier()
        lines = rng.choice(1024, size=n_lines, replace=False).astype(np.int64)
        trace = lines[rng.permutation(n_lines)]
        h.simulate_trace(np.tile(trace, 3))  # warm
        h2 = self._hier()
        h2.simulate_trace(np.tile(trace, 3))
        exact = h2.simulate_trace(trace)
        analytic = h.cyclic_steady_state(lines)
        for name in ("L1", "L2"):
            assert exact.level(name).hits == analytic.level(name).hits, name
        assert exact.memory_accesses == analytic.memory_accesses

    def test_duplicate_lines_rejected(self):
        # One check at entry guards every level of the walk.
        with pytest.raises(ValueError, match="distinct lines"):
            self._hier().cyclic_steady_state(np.array([3, 40, 3]))

    def test_conservation_invariant(self):
        # Accesses at each level == misses of the previous level.
        h = self._hier()
        lines = np.arange(48)
        counts = h.cyclic_steady_state(lines)
        assert counts.level("L2").accesses == counts.level("L1").misses
        assert counts.memory_accesses == counts.level("L2").misses
