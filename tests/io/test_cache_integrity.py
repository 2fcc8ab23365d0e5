"""Integrity tests for the measurement cache: checksums, quarantine,
and graceful disk-layer degradation."""

import json
import logging

import numpy as np
import pytest

from repro.cat import BranchBenchmark
from repro.cat.runner import BenchmarkRunner
from repro.faults import FaultConfig, FaultInjector
from repro.io.cache import MeasurementCache, measurement_cache_key
from repro.hardware.systems import aurora_node


@pytest.fixture(scope="module")
def keyed_measurement():
    node = aurora_node()
    runner = BenchmarkRunner(node)
    bench = BranchBenchmark()
    registry = runner.select_events(bench)
    key = measurement_cache_key(node, bench, registry, 5)
    return key, runner.run(bench, events=registry)


class TestChecksums:
    def test_put_writes_checksum_sidecar(self, tmp_path, keyed_measurement):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        sidecar = (tmp_path / key[:2] / key).with_suffix(".sha256")
        assert sidecar.exists()
        checksums = json.loads(sidecar.read_text())
        assert set(checksums) == {"npz", "json"}

    def test_verified_roundtrip(self, tmp_path, keyed_measurement):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        cache.clear()
        loaded = cache.get(key)
        assert loaded is not None
        np.testing.assert_array_equal(loaded.data, m.data)
        assert cache.stats.snapshot()["corrupt"] == 0

    def test_legacy_entry_without_checksum_still_loads(
        self, tmp_path, keyed_measurement
    ):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        (tmp_path / key[:2] / key).with_suffix(".sha256").unlink()
        fresh = MeasurementCache(root=tmp_path)
        assert fresh.get(key) is not None


class TestQuarantine:
    def test_truncated_entry_is_quarantined_miss(
        self, tmp_path, keyed_measurement
    ):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        injector = FaultInjector(FaultConfig(seed=1, cache_corruption_rate=1.0))
        assert injector.maybe_corrupt_cache(tmp_path, "test") == 1

        fresh = MeasurementCache(root=tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats.snapshot()["corrupt"] == 1
        assert fresh.quarantined == [key]
        # Evidence preserved, entry gone from the main tree.
        assert list((tmp_path / "quarantine").iterdir())
        assert not (tmp_path / key[:2] / key).with_suffix(".npz").exists()

    def test_sidecar_tamper_is_caught(self, tmp_path, keyed_measurement):
        """Corruption the npz decoder would happily accept (a tampered
        JSON sidecar) is still caught by the checksum."""
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        sidecar = (tmp_path / key[:2] / key).with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta["benchmark"] = "tampered"
        sidecar.write_text(json.dumps(meta))
        fresh = MeasurementCache(root=tmp_path)
        assert fresh.get(key) is None
        assert fresh.quarantined == [key]

    def test_get_or_measure_transparently_remeasures(
        self, tmp_path, keyed_measurement
    ):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        FaultInjector(
            FaultConfig(seed=1, cache_corruption_rate=1.0)
        ).maybe_corrupt_cache(tmp_path, "test")
        fresh = MeasurementCache(root=tmp_path)
        recovered = fresh.get_or_measure(key, lambda: m)
        np.testing.assert_array_equal(recovered.data, m.data)
        # The re-measured entry replaces the corrupt one and verifies.
        final = MeasurementCache(root=tmp_path)
        assert final.get(key) is not None

    def test_quarantine_logs_warning(self, tmp_path, keyed_measurement, caplog):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        (tmp_path / key[:2] / key).with_suffix(".npz").write_bytes(b"junk")
        fresh = MeasurementCache(root=tmp_path)
        with caplog.at_level(logging.WARNING, logger="repro.io.cache"):
            fresh.get(key)
        assert any("quarantined" in r.message for r in caplog.records)


class TestFsck:
    def test_verify_all_quarantines_unread_corruption(
        self, tmp_path, keyed_measurement
    ):
        """Corruption nobody happens to read (e.g. injected after the
        owning task's read) is still caught by the directory fsck."""
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        (tmp_path / key[:2] / key).with_suffix(".npz").write_bytes(b"junk")
        fsck = MeasurementCache(root=tmp_path)
        assert fsck.verify_all() == [key]
        assert fsck.quarantined == [key]
        assert list((tmp_path / "quarantine").iterdir())
        # The directory is clean now: a second pass finds nothing.
        assert MeasurementCache(root=tmp_path).verify_all() == []

    def test_verify_all_passes_clean_directory(self, tmp_path, keyed_measurement):
        key, m = keyed_measurement
        cache = MeasurementCache(root=tmp_path)
        cache.put(key, m)
        assert cache.verify_all() == []
        assert cache.stats.snapshot()["corrupt"] == 0

    def test_verify_all_on_memory_only_cache(self):
        assert MeasurementCache().verify_all() == []


class TestDiskLayerDegradation:
    def test_unwritable_root_disables_disk_layer(
        self, tmp_path, keyed_measurement, caplog
    ):
        key, m = keyed_measurement
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        cache = MeasurementCache(root=blocker / "sub")
        with caplog.at_level(logging.WARNING, logger="repro.io.cache"):
            cache.put(key, m)
        assert cache.root is None  # disk layer off...
        assert cache.get(key) is not None  # ...memory layer still serves
        assert any("not writable" in r.message for r in caplog.records)
