"""Tests for the content-addressed measurement cache."""

import numpy as np
import pytest

from repro.cat import BenchmarkRunner, BranchBenchmark
from repro.hardware import aurora_node
from repro.io import load_measurements, save_measurements
from repro.io.cache import (
    MeasurementCache,
    event_set_digest,
    measurement_cache_key,
)


@pytest.fixture(scope="module")
def node():
    return aurora_node(seed=7)


@pytest.fixture(scope="module")
def bench():
    return BranchBenchmark()


@pytest.fixture(scope="module")
def registry(node, bench):
    return BenchmarkRunner(node, repetitions=2).select_events(bench)


@pytest.fixture(scope="module")
def measurement(node, bench, registry):
    return BenchmarkRunner(node, repetitions=2).run(bench, events=registry)


class TestCacheKey:
    def test_deterministic(self, node, bench, registry):
        a = measurement_cache_key(node, bench, registry, 2)
        b = measurement_cache_key(node, bench, registry, 2)
        assert a == b and len(a) == 64

    def test_sensitive_to_seed(self, bench, registry):
        a = measurement_cache_key(aurora_node(seed=1), bench, registry, 2)
        b = measurement_cache_key(aurora_node(seed=2), bench, registry, 2)
        assert a != b

    def test_sensitive_to_repetitions(self, node, bench, registry):
        assert measurement_cache_key(node, bench, registry, 2) != (
            measurement_cache_key(node, bench, registry, 3)
        )

    def test_sensitive_to_event_set(self, node, bench, registry):
        subset = list(registry)[:-1]
        assert measurement_cache_key(node, bench, registry, 2) != (
            measurement_cache_key(node, bench, subset, 2)
        )

    def test_digest_covers_event_content(self, registry):
        events = list(registry)
        full = event_set_digest(events)
        assert event_set_digest(events) == full
        assert event_set_digest(events[:-1]) != full


class TestMeasurementCache:
    def test_memory_hit(self, node, bench, registry, measurement):
        cache = MeasurementCache()
        key = measurement_cache_key(node, bench, registry, 2)
        assert cache.get(key) is None
        cache.put(key, measurement)
        assert cache.get(key) is measurement
        assert cache.stats.snapshot()["memory_hits"] == 1
        assert cache.stats.snapshot()["misses"] == 1

    def test_lru_eviction(self, measurement):
        cache = MeasurementCache(max_memory_entries=2)
        cache.put("a" * 64, measurement)
        cache.put("b" * 64, measurement)
        cache.get("a" * 64)  # refresh "a": "b" becomes eviction victim
        cache.put("c" * 64, measurement)
        assert cache.get("b" * 64) is None
        assert cache.get("a" * 64) is not None
        assert cache.get("c" * 64) is not None

    def test_eviction_stats_and_counter(self, measurement):
        from repro.obs import tracing

        with tracing(seed=0) as tracer:
            cache = MeasurementCache(max_memory_entries=2)
            cache.put("a" * 64, measurement)
            cache.put("b" * 64, measurement)
            assert cache.stats.snapshot()["evictions"] == 0
            cache.put("c" * 64, measurement)  # displaces "a"
            cache.put("d" * 64, measurement)  # displaces "b"
            assert cache.stats.snapshot()["evictions"] == 2
            assert tracer.counters.get("cache.evictions") == 2
        # Memory-only hits/misses also flow through the obs counters.
        with tracing(seed=0) as tracer:
            cache = MeasurementCache()
            cache.get("e" * 64)
            cache.put("e" * 64, measurement)
            cache.get("e" * 64)
            assert cache.stats.snapshot()["memory_hits"] == 1
            assert cache.stats.snapshot()["misses"] == 1
            assert tracer.counters.get("cache.memory_hits") == 1
            assert tracer.counters.get("cache.misses") == 1

    def test_disk_round_trip(self, tmp_path, node, bench, registry, measurement):
        cache = MeasurementCache(root=tmp_path)
        key = measurement_cache_key(node, bench, registry, 2)
        cache.put(key, measurement)
        cache.clear()
        loaded = cache.get(key)
        assert cache.stats.snapshot()["disk_hits"] == 1
        assert np.array_equal(loaded.data, measurement.data)
        assert loaded.event_names == measurement.event_names
        assert loaded.pmu_runs == measurement.pmu_runs

    def test_get_or_measure_runs_once(self, measurement):
        cache = MeasurementCache()
        calls = []

        def produce():
            calls.append(1)
            return measurement

        assert cache.get_or_measure("k" * 64, produce) is measurement
        assert cache.get_or_measure("k" * 64, produce) is measurement
        assert len(calls) == 1

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            MeasurementCache(max_memory_entries=0)


class TestPmuRunsPersistence:
    def test_round_trip(self, tmp_path, measurement):
        assert measurement.pmu_runs is not None  # attached by the runner
        path = save_measurements(measurement, tmp_path / "snap")
        loaded = load_measurements(path)
        assert loaded.pmu_runs == measurement.pmu_runs

    def test_views_propagate_pmu_runs(self, measurement):
        assert measurement.thread_median().pmu_runs == measurement.pmu_runs
        subset = measurement.select_events(measurement.event_names[:3])
        assert subset.pmu_runs == measurement.pmu_runs

    def test_legacy_sidecar_without_pmu_runs(self, tmp_path, measurement):
        import json

        path = save_measurements(measurement, tmp_path / "legacy")
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        del meta["pmu_runs"]
        sidecar.write_text(json.dumps(meta))
        assert load_measurements(path).pmu_runs is None
