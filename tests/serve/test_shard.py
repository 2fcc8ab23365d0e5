"""Tests for consistent-hash catalog sharding.

The ring's three guarantees are held as hypothesis properties (balance
within bound, exactly one live owner per key, minimal remap on
reshard); the :class:`ShardedCatalogStore` tests prove the front is
behaviourally identical to one unsharded store — routing, deterministic
fan-out, typed per-shard degradation, and replica invalidation on the
events-registry digest.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.pipeline import AnalysisPipeline
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve import (
    MetricCatalogStore,
    ShardRing,
    ShardUnavailable,
    ShardedCatalogStore,
    open_catalog,
    shard_names,
)

_KEYS = st.tuples(
    st.text(min_size=1, max_size=12), st.text(min_size=1, max_size=24)
)


@pytest.fixture(scope="module")
def node():
    return aurora_node(seed=7)


@pytest.fixture(scope="module")
def entries(node):
    from repro.serve.catalog import entries_from_result

    result = AnalysisPipeline.for_domain("branch", node).run()
    return entries_from_result(
        result, arch=node.name, seed=7, events_digest=event_set_digest(node.events)
    )


class TestShardNames:
    def test_canonical_names(self):
        assert shard_names(3) == ("shard-00", "shard-01", "shard-02")
        with pytest.raises(ValueError):
            shard_names(0)


class TestShardRingProperties:
    """The hypothesis-held contract (satellite S1)."""

    @given(key=_KEYS, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_lookup_is_deterministic_across_instances(self, key, n):
        """Two processes that agree on the names agree on every route."""
        a, b = ShardRing.of_size(n), ShardRing.of_size(n)
        assert a.lookup(*key) == b.lookup(*key)

    @given(
        key=_KEYS,
        n=st.integers(min_value=2, max_value=8),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_key_maps_to_exactly_one_live_shard(self, key, n, data):
        """Down shards are walked past; the route stays a function."""
        ring = ShardRing.of_size(n)
        down = data.draw(
            st.sets(st.sampled_from(ring.shards), max_size=n - 1)
        )
        owner = ring.lookup(*key, exclude=down)
        assert owner in ring.shards and owner not in down
        # A function: the same exclusion set yields the same owner.
        assert ring.lookup(*key, exclude=down) == owner
        # Only when *everything* is down does the ring give up, typed.
        with pytest.raises(ShardUnavailable):
            ring.lookup(*key, exclude=ring.shards)

    @given(n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_balance_within_bound(self, n):
        """128 vnodes keep every shard within ~2x of its fair share of
        the ring (empirically within ~1.3x; 2x is the alarm bound)."""
        shares = ShardRing.of_size(n).arc_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-9
        fair = 1.0 / n
        for name, share in shares.items():
            assert share < 2.0 * fair, f"{name} hoards {share:.3f} of the ring"
            assert share > 0.25 * fair, f"{name} owns almost nothing ({share:.4f})"

    @given(key=_KEYS, n=st.integers(min_value=1, max_value=8))
    @settings(max_examples=100, deadline=None)
    def test_reshard_moves_keys_only_onto_the_new_shard(self, key, n):
        """The minimality property, exactly: growing N -> N+1 either
        leaves a key where it was or moves it onto the new shard."""
        old_owner = ShardRing.of_size(n).lookup(*key)
        new_owner = ShardRing.of_size(n + 1).lookup(*key)
        if new_owner != old_owner:
            assert new_owner == shard_names(n + 1)[-1]

    def test_reshard_remaps_a_minimal_fraction(self):
        """Over a large deterministic key population the moved fraction
        tracks the new shard's arc share — about 1/(N+1), never a
        reshuffle of everything."""
        keys = [("arch", f"metric-{i}") for i in range(2000)]
        for n in (2, 4, 7):
            before = ShardRing.of_size(n)
            after = ShardRing.of_size(n + 1)
            moved = sum(1 for k in keys if before.lookup(*k) != after.lookup(*k))
            new_share = after.arc_shares()[shard_names(n + 1)[-1]]
            fraction = moved / len(keys)
            assert fraction <= 2.0 / (n + 1)
            # The moved set IS the new shard's slice (sampling error only).
            assert abs(fraction - new_share) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardRing([])
        with pytest.raises(ValueError):
            ShardRing(["a", "a"])
        with pytest.raises(ValueError):
            ShardRing(["a"], vnodes=0)


class TestShardedStoreRouting:
    def test_put_routes_to_ring_owner_and_round_trips(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=3)
        for entry in entries:
            stored = store.put(entry)
            owner = store.shard_for(entry.arch, entry.metric)
            on_disk = store.shard_store(owner).latest(
                entry.arch, entry.metric, entry.config_digest
            )
            assert on_disk is not None and on_disk.version == stored.version
            # Exactly one shard holds the key.
            for other in store.shards:
                if other != owner:
                    assert (
                        store.shard_store(other).latest(
                            entry.arch, entry.metric, entry.config_digest
                        )
                        is None
                    )
        got = store.latest(
            entries[0].arch, entries[0].metric, entries[0].config_digest
        )
        assert got is not None
        assert got.coefficients_hex == entries[0].coefficients_hex

    def test_reopen_reads_manifest_and_rejects_mismatch(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=3)
        store.put(entries[0])
        reopened = ShardedCatalogStore(tmp_path)  # no n_shards: manifest rules
        assert reopened.shards == store.shards
        assert (
            reopened.latest(
                entries[0].arch, entries[0].metric, entries[0].config_digest
            )
            is not None
        )
        with pytest.raises(ValueError, match="re-partition"):
            ShardedCatalogStore(tmp_path, n_shards=5)

    def test_unreadable_manifest_format_is_an_error(self, tmp_path):
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        store.manifest_path.write_text(json.dumps({"format": 99, "shards": []}))
        with pytest.raises(ValueError, match="format"):
            ShardedCatalogStore(tmp_path)

    def test_open_catalog_dispatches_by_manifest(self, tmp_path):
        plain = open_catalog(tmp_path / "plain")
        assert isinstance(plain, MetricCatalogStore)
        sharded = open_catalog(tmp_path / "sharded", shards=2)
        assert isinstance(sharded, ShardedCatalogStore)
        # A root that carries shards.json opens sharded with no hint.
        again = open_catalog(tmp_path / "sharded")
        assert isinstance(again, ShardedCatalogStore)
        assert again.shards == sharded.shards

    def test_history_and_diff_route_to_the_owner(self, tmp_path, entries):
        from repro.serve.catalog import _coeffs_to_hex

        store = ShardedCatalogStore(tmp_path, n_shards=3)
        base = store.put(entries[0])
        coeffs = entries[0].coefficients.copy()
        coeffs[0] = coeffs[0] + 2.0**-48
        store.put(
            dataclasses.replace(
                entries[0], coefficients_hex=_coeffs_to_hex(coeffs)
            )
        )
        assert [
            e.version
            for e in store.history(base.arch, base.metric, base.config_digest)
        ] == [1, 2]
        diff = store.diff(base.arch, base.metric, base.config_digest, 1, 2)
        assert not diff.identical


class TestShardedFanOut:
    """Cross-shard list/diff/fsck coverage (satellite S3)."""

    def test_listing_is_deterministic_and_matches_unsharded(
        self, tmp_path, entries
    ):
        sharded = ShardedCatalogStore(tmp_path / "sharded", n_shards=3)
        plain = MetricCatalogStore(tmp_path / "plain")
        for entry in entries:
            sharded.put(entry)
            plain.put(entry)
        rows = sharded.list_entries()
        assert rows == sharded.list_entries()  # stable order
        assert rows == sorted(
            plain.list_entries(),
            key=lambda r: (r["arch"], r["metric"], r["config_digest"]),
        )

    def test_down_shard_degrades_its_keys_not_the_listing(
        self, tmp_path, entries
    ):
        store = ShardedCatalogStore(tmp_path, n_shards=3)
        for entry in entries:
            store.put(entry)
        owners = {e.metric: store.shard_for(e.arch, e.metric) for e in entries}
        victim = owners[entries[0].metric]
        survivors = [m for m, owner in owners.items() if owner != victim]
        with obs.tracing(seed=7) as tracer:
            store.mark_down(victim)
            # Keyed ops on the down shard: typed 503, scoped to the shard.
            with pytest.raises(ShardUnavailable) as err:
                store.latest(
                    entries[0].arch,
                    entries[0].metric,
                    entries[0].config_digest,
                )
            assert err.value.status == 503
            assert err.value.payload["shard"] == victim
            assert err.value.payload["retry"] is True
            # The listing still answers, minus the down shard's rows.
            rows = store.list_entries()
            assert store.degraded_shards == (victim,)
            listed = {r["metric"] for r in rows}
            assert set(survivors) <= listed
            assert all(owners[m] != victim for m in listed)
            assert tracer.counters["shard.degraded_reads"] >= 2
        store.mark_up(victim)
        assert (
            store.latest(
                entries[0].arch, entries[0].metric, entries[0].config_digest
            )
            is not None
        )
        assert {r["metric"] for r in store.list_entries()} == set(owners)

    def test_fsck_merges_reports_with_shard_prefixed_paths(
        self, tmp_path, entries
    ):
        store = ShardedCatalogStore(tmp_path, n_shards=3)
        for entry in entries:
            store.put(entry)
        clean = store.fsck(repair=True)
        assert clean.clean and clean.scanned == len(entries)
        # Tear one version file in whichever shard owns the first entry.
        owner = store.shard_for(entries[0].arch, entries[0].metric)
        victim_dir = tmp_path / owner
        torn = next(victim_dir.rglob("v*.json"))
        torn.write_text(torn.read_text()[: len(torn.read_text()) // 2])
        report = ShardedCatalogStore(tmp_path).fsck(repair=True)
        assert not report.clean
        assert len(report.quarantined) == 1
        assert report.quarantined[0].startswith(f"{owner}/")

    def test_compact_log_sums_across_shards(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=3)
        for entry in entries:
            store.put(entry)
        assert len(store.log_records()) == len(entries)
        compaction = store.compact_log()
        assert compaction.records_before == len(entries)
        assert compaction.dropped == 0


class TestReadReplicas:
    def test_fresh_read_is_replicated_and_hit(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        entry = entries[0]
        store.put(entry)
        with obs.tracing(seed=7) as tracer:
            first = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
            assert first is not None and store.replica_count == 1
            again = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
            assert again.coefficients_hex == first.coefficients_hex
            assert tracer.counters["shard.replica_hits"] == 1
            # The replica hit skipped the disk route.
            assert tracer.counters["shard.routes"] == 1

    def test_registry_edit_invalidates_replica(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        entry = entries[0]
        store.put(entry)
        with obs.tracing(seed=7) as tracer:
            store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
            assert store.replica_count == 1
            # The registry moved: the caller's digest changed, so the
            # replica must not answer — and the disk read (also
            # staleness-checked) refuses too.
            stale = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest="0" * 16,
            )
            assert stale is None
            assert store.replica_count == 0
            assert tracer.counters["shard.replica_invalidations"] == 1

    def test_unrelated_registry_edit_keeps_replica(self, tmp_path, entries):
        """An entry carrying a dependency map stays replicated across an
        edit elsewhere in the registry: the whole-registry digest moves,
        the map does not, so the replica answers without a disk route."""
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        deps = {"BR_INST_RETIRED": "a" * 16, "BR_MISP_RETIRED": "b" * 16}
        entry = dataclasses.replace(entries[0], event_digests=deps)
        store.put(entry)
        with obs.tracing(seed=7) as tracer:
            store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
                event_digests=deps,
            )
            routes = tracer.counters["shard.routes"]
            hits = tracer.counters.get("shard.replica_hits", 0)
            again = store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest="0" * 16,
                event_digests=dict(deps),
            )
            assert again is not None
            assert tracer.counters["shard.replica_hits"] == hits + 1
            assert tracer.counters.get("shard.replica_invalidations", 0) == 0
            assert tracer.counters["shard.routes"] == routes

    def test_write_invalidates_replica(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        entry = entries[0]
        store.put(entry)
        store.latest(
            entry.arch,
            entry.metric,
            entry.config_digest,
            events_digest=entry.events_digest,
        )
        assert store.replica_count == 1
        store.put(entry)
        assert store.replica_count == 0

    def test_unchecked_reads_are_not_cached(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        store.put(entries[0])
        assert (
            store.latest(
                entries[0].arch, entries[0].metric, entries[0].config_digest
            )
            is not None
        )
        assert store.replica_count == 0  # no freshness evidence, no replica

    def test_replica_capacity_is_lru_bounded(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=2, replica_capacity=2)
        for entry in entries[:3]:
            store.put(entry)
            store.latest(
                entry.arch,
                entry.metric,
                entry.config_digest,
                events_digest=entry.events_digest,
            )
        assert store.replica_count == 2

    def test_mark_down_clears_replicas(self, tmp_path, entries):
        store = ShardedCatalogStore(tmp_path, n_shards=2)
        entry = entries[0]
        store.put(entry)
        store.latest(
            entry.arch,
            entry.metric,
            entry.config_digest,
            events_digest=entry.events_digest,
        )
        assert store.replica_count == 1
        store.mark_down(store.shards[0])
        assert store.replica_count == 0
