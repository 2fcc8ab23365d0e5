"""Set-associative LRU cache hierarchy simulator.

Two complementary engines:

* :meth:`CacheLevel.simulate_trace` — an exact per-access LRU simulation for
  arbitrary address traces.  Used by unit tests and small workloads.
* :func:`cyclic_steady_state` — a closed-form steady-state solution for
  *cyclic* traces (the CAT pointer chase re-walks the same permutation of
  lines every pass).  For LRU with a cyclic reference stream a classic
  result applies: every line mapping to a set that holds at most ``ways``
  distinct lines always hits after warm-up, and every line in an over-full
  set always misses (the cyclic order guarantees the LRU victim is exactly
  the line needed furthest in the future that wraps around first).  The
  property tests in ``tests/hardware/test_cache.py`` verify the two engines
  agree on randomized configurations.

The closed form holds only for distinct lines.  Both entry points check
that with a sort and a scan for equal neighbours, and raise ``ValueError``
on a repeat.  :meth:`CacheHierarchy.cyclic_steady_state` checks once per
walk, at entry: each level sees a subset of the lines, which stays
distinct.  Each level then needs one ``bincount`` of its lines over sets.

The hierarchy is modelled as non-inclusive with independent per-level LRU
state; demand misses propagate to the next level.  That matches the
granularity of the events the paper analyses (per-level demand hits and
misses) without modelling coherence, which CAT's disjoint per-thread
buffers never exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "CacheConfig",
    "CacheLevel",
    "CacheHierarchy",
    "HierarchyCounts",
    "LevelCounts",
    "cyclic_steady_state",
]


@dataclass(frozen=True)
class CacheConfig:
    """Geometry of one cache level."""

    name: str
    size_bytes: int
    line_bytes: int
    ways: int

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.ways <= 0:
            raise ValueError(f"{self.name}: all cache dimensions must be positive")
        if self.size_bytes % (self.line_bytes * self.ways) != 0:
            raise ValueError(
                f"{self.name}: size {self.size_bytes} is not divisible by "
                f"line_bytes*ways = {self.line_bytes * self.ways}"
            )
        n_sets = self.size_bytes // (self.line_bytes * self.ways)
        if n_sets & (n_sets - 1):
            raise ValueError(f"{self.name}: set count {n_sets} must be a power of two")

    @property
    def n_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)

    @property
    def capacity_lines(self) -> int:
        return self.size_bytes // self.line_bytes

    def set_index(self, line_addrs: np.ndarray) -> np.ndarray:
        """Map line numbers to set indices (modulo indexing)."""
        return np.asarray(line_addrs, dtype=np.int64) & (self.n_sets - 1)


class CacheLevel:
    """Exact LRU simulation of one set-associative cache level."""

    def __init__(self, config: CacheConfig):
        self.config = config
        # Per-set ordered mapping line -> recency stamp; dict preserves
        # insertion order so popping the oldest entry is O(1) amortized.
        self._sets: List[Dict[int, None]] = [dict() for _ in range(config.n_sets)]

    def reset(self) -> None:
        """Flush all cached lines."""
        for s in self._sets:
            s.clear()

    def simulate_trace(self, line_addrs: Sequence[int]) -> np.ndarray:
        """Run a trace of line numbers; return a boolean hit mask.

        State persists across calls (warm cache), matching real hardware;
        call :meth:`reset` for a cold run.
        """
        cfg = self.config
        addrs = np.asarray(line_addrs, dtype=np.int64)
        sets = cfg.set_index(addrs)
        hits = np.zeros(addrs.shape[0], dtype=bool)
        ways = cfg.ways
        for i in range(addrs.shape[0]):
            line = int(addrs[i])
            cache_set = self._sets[sets[i]]
            if line in cache_set:
                hits[i] = True
                # Refresh recency: move to the back of the dict.
                del cache_set[line]
                cache_set[line] = None
            else:
                if len(cache_set) >= ways:
                    # Evict LRU = first key in insertion order.
                    cache_set.pop(next(iter(cache_set)))
                cache_set[line] = None
        return hits

    def resident_lines(self) -> int:
        """Number of lines currently cached (diagnostics)."""
        return sum(len(s) for s in self._sets)


@dataclass(frozen=True)
class LevelCounts:
    """Per-level demand traffic for one simulated pass."""

    name: str
    accesses: int
    hits: int

    @property
    def misses(self) -> int:
        return self.accesses - self.hits

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass(frozen=True)
class HierarchyCounts:
    """Demand traffic through every level plus memory accesses.

    ``survivors`` lists the line numbers that missed *every* level (empty
    for the exact-trace engine, which does not track line identity across
    calls); a shared next tier — e.g. an L3 behind private L1/L2 — consumes
    them as its arriving stream.
    """

    levels: Tuple[LevelCounts, ...]
    memory_accesses: int
    survivors: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.survivors is None:
            object.__setattr__(self, "survivors", np.zeros(0, dtype=np.int64))

    def level(self, name: str) -> LevelCounts:
        for lv in self.levels:
            if lv.name == name:
                return lv
        raise KeyError(f"no cache level named {name!r}")


def _require_distinct(addrs: np.ndarray) -> None:
    """Raise unless ``addrs`` repeats no line (sort, then scan neighbours)."""
    ordered = np.sort(addrs)
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("cyclic_steady_state expects distinct lines per pass")


def _level_steady_state(addrs: np.ndarray, config: CacheConfig) -> Tuple[int, np.ndarray]:
    """Hits per pass at one level, and the mask of ``addrs`` that miss it.

    ``addrs`` must be distinct; the callers check that first.
    """
    sets = config.set_index(addrs)
    per_set = np.bincount(sets, minlength=config.n_sets)
    fits = per_set <= config.ways
    return int(per_set[fits].sum()), ~fits[sets]


def cyclic_steady_state(line_addrs: np.ndarray, config: CacheConfig) -> Tuple[int, int]:
    """Steady-state (hits, misses) per pass of a cyclic trace.

    ``line_addrs`` is the set of distinct lines touched once per pass, in
    any order.  For LRU under cyclic re-reference, a set with at most
    ``ways`` distinct lines hits on every access once warm, while an
    over-full set misses on every access: by the time the walk returns to a
    line, at least ``ways`` other lines of the same set have been touched,
    so it has been evicted.
    """
    addrs = np.asarray(line_addrs, dtype=np.int64)
    if addrs.size == 0:
        return 0, 0
    _require_distinct(addrs)
    hits, _ = _level_steady_state(addrs, config)
    return hits, int(addrs.size) - hits


class CacheHierarchy:
    """A stack of cache levels in front of memory.

    ``simulate_trace`` threads an exact trace through all levels; demand
    misses at level *i* form the trace for level *i+1*.
    ``cyclic_steady_state`` does the same with the closed form: the lines
    that miss at one level are re-referenced cyclically at the next, so the
    per-set fit argument applies level by level.
    """

    def __init__(self, configs: Sequence[CacheConfig]):
        if not configs:
            raise ValueError("a hierarchy needs at least one level")
        lines = {c.line_bytes for c in configs}
        if len(lines) != 1:
            raise ValueError("all levels must share one line size")
        self.configs = tuple(configs)
        self.levels = [CacheLevel(c) for c in configs]

    @property
    def line_bytes(self) -> int:
        return self.configs[0].line_bytes

    def reset(self) -> None:
        for level in self.levels:
            level.reset()

    def simulate_trace(self, line_addrs: Sequence[int]) -> HierarchyCounts:
        """Exact simulation of a line-address trace through all levels."""
        trace = np.asarray(line_addrs, dtype=np.int64)
        counts: List[LevelCounts] = []
        for level in self.levels:
            hits = level.simulate_trace(trace)
            counts.append(
                LevelCounts(level.config.name, accesses=trace.size, hits=int(hits.sum()))
            )
            trace = trace[~hits]
        return HierarchyCounts(levels=tuple(counts), memory_accesses=int(trace.size))

    def cyclic_steady_state(self, line_addrs: np.ndarray) -> HierarchyCounts:
        """Closed-form steady-state counts per pass of a cyclic walk."""
        remaining = np.asarray(line_addrs, dtype=np.int64)
        # Every level sees a subset of these lines, and a subset of distinct
        # lines is distinct, so one check at entry covers the whole walk.
        _require_distinct(remaining)
        counts: List[LevelCounts] = []
        for config in self.configs:
            accesses = int(remaining.size)
            hits = 0
            if accesses:
                hits, misses = _level_steady_state(remaining, config)
                remaining = remaining[misses]
            counts.append(LevelCounts(config.name, accesses=accesses, hits=hits))
        return HierarchyCounts(
            levels=tuple(counts),
            memory_accesses=int(remaining.size),
            survivors=remaining,
        )
