"""Drift detection over catalog version history, and staleness checks."""

import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.events.registry import EventRegistry
from repro.hardware.systems import aurora_node
from repro.serve.catalog import MetricCatalogStore, entries_from_result
from repro.vet import (
    DriftAnomaly,
    DriftReport,
    TrustPriors,
    anomalies_from_diff,
    detect_drift,
    forge_registry,
    stale_entry_rows,
)
from tests.vet.conftest import FORGE_TARGET


def _anomaly(kind="error-shift"):
    return DriftAnomaly(
        kind=kind,
        arch="aurora-spr",
        metric="M",
        config_digest="abc",
        version_a=1,
        version_b=2,
        detail="d",
    )


class TestDriftAnomaly:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown anomaly kind"):
            _anomaly(kind="vibes")

    def test_describe_and_payload(self):
        anomaly = _anomaly()
        assert "v1->v2" in anomaly.describe()
        assert anomaly.to_payload()["kind"] == "error-shift"


class TestAnomaliesFromDiff:
    def test_identical_diff_is_clean(self):
        assert anomalies_from_diff({"identical": True}, "a", "d") == []

    def test_every_kind_extracted(self):
        payload = {
            "identical": False,
            "metric": "M",
            "version_a": 1,
            "version_b": 2,
            "added_terms": {"NEW": 1.0},
            "removed_terms": {"OLD": 1.0},
            "changed_terms": {"E": [1.0, 2.0]},
            "error_a": 0.1,
            "error_b": 0.2,
            "trust_a": "certified",
            "trust_b": "caution",
            "verdict_flips": {"E": [None, "accurate"]},
            "events_digest_changed": True,
            "guards_a": [],
            "guards_b": ["fallback"],
        }
        kinds = {a.kind for a in anomalies_from_diff(payload, "arch", "d")}
        assert kinds == {
            "term-change",
            "coefficient-drift",
            "error-shift",
            "trust-transition",
            "verdict-flip",
            "registry-change",
            "guard-change",
        }

    def test_worst_coefficient_named(self):
        payload = {
            "identical": False,
            "metric": "M",
            "version_a": 1,
            "version_b": 2,
            "changed_terms": {"SMALL": [1.0, 1.001], "BIG": [1.0, 3.0]},
        }
        (anomaly,) = anomalies_from_diff(payload, "arch", "d")
        assert anomaly.kind == "coefficient-drift"
        assert "BIG" in anomaly.detail


class TestDriftReport:
    def test_empty_report_not_flagged(self):
        report = DriftReport(keys_scanned=3, versions_scanned=3)
        assert not report.flagged
        assert "no anomalies" in report.summary()

    def test_by_kind_and_payload(self):
        report = DriftReport(anomalies=[_anomaly(), _anomaly()])
        assert report.by_kind() == {"error-shift": 2}
        payload = report.to_payload()
        assert payload["flagged"] is True
        assert len(payload["anomalies"]) == 2


@pytest.fixture(scope="module")
def transitioned_store(tmp_path_factory, forged_report):
    """A catalog holding a clean version and a vetted (prior-gated)
    version of the same cpu_flops keys."""
    node = aurora_node()
    clean = AnalysisPipeline.for_domain("cpu_flops", node).run()
    vetted_node = aurora_node()
    vetted_node.events = forge_registry(
        vetted_node.events, {FORGE_TARGET: ("overcount", 1.5)}
    )
    vetted = AnalysisPipeline.for_domain(
        "cpu_flops",
        vetted_node,
        priors=TrustPriors.from_report(forged_report),
    ).run()
    store = MetricCatalogStore(
        tmp_path_factory.mktemp("drift") / "catalog", durable=False
    )
    digest = node.events.content_digest()
    per_event = node.events.event_digests()
    for result in (clean, vetted):
        for entry in entries_from_result(
            result,
            arch=node.name,
            seed=2024,
            events_digest=digest,
            event_digests=per_event,
        ):
            store.put(entry)
    return store


class TestDetectDrift:
    def test_transition_is_flagged(self, transitioned_store):
        report = detect_drift(transitioned_store, arch="aurora-spr")
        assert report.flagged
        kinds = set(report.by_kind())
        # The refuted event left the composition, so the definition moved
        # and the vet verdicts flipped from absent to judged.
        assert {"term-change", "coefficient-drift"} & kinds
        assert "verdict-flip" in kinds

    def test_single_version_keys_are_stable(self, tmp_path):
        node = aurora_node()
        result = AnalysisPipeline.for_domain("cpu_flops", node).run()
        store = MetricCatalogStore(tmp_path / "catalog", durable=False)
        for entry in entries_from_result(
            result,
            arch=node.name,
            seed=2024,
            events_digest=node.events.content_digest(),
        ):
            store.put(entry)
        report = detect_drift(store)
        assert report.keys_scanned > 0
        assert not report.flagged


class TestStaleEntries:
    def test_live_registry_matches_nothing_stale(self, transitioned_store):
        live = {"aurora-spr": aurora_node(seed=0).events}
        assert stale_entry_rows(transitioned_store, live) == []

    def test_removed_event_marks_entries_stale(self, transitioned_store):
        row = transitioned_store.list_entries(None)[0]
        entry = transitioned_store.get(
            row["arch"], row["metric"], row["config_digest"]
        )
        dropped = sorted(entry.event_digests)[0]
        pruned = EventRegistry(name="pruned")
        for event in aurora_node(seed=0).events:
            if event.full_name != dropped:
                pruned.add(event)
        rows = stale_entry_rows(transitioned_store, {"aurora-spr": pruned})
        assert rows
        assert all("stale_reason" in row for row in rows)
        assert any(dropped in row["stale_reason"] for row in rows)

    def test_added_event_marks_entries_stale(self, tmp_path):
        """An event added to an entry's measured domain stales it (the
        refresh engine recomputes such entries), and the reason names
        the added event."""
        from repro.events.model import RawEvent
        from repro.incr import (
            RegistryEdit,
            apply_edits,
            domain_event_digests,
            measured_event_domains,
        )

        node = aurora_node(seed=7)
        store = MetricCatalogStore(tmp_path / "catalog", durable=False)
        for entry in entries_from_result(
            AnalysisPipeline.for_domain("branch", node).run(),
            arch=node.name,
            seed=7,
            events_digest=node.events.content_digest(),
            event_digests=domain_event_digests(node.events, "branch"),
        ):
            store.put(entry)
        assert stale_entry_rows(store, {node.name: node.events}) == []

        added = RawEvent(
            name="BR_SYNTH_ADDED",
            domain=measured_event_domains("branch")[0],
            response={"k": 1.0},
        )
        grown = apply_edits(
            node.events, [RegistryEdit(action="add", new_event=added)]
        )
        rows = stale_entry_rows(store, {node.name: grown})
        assert len(rows) == len(store.list_entries())
        assert all(
            "+BR_SYNTH_ADDED" in row["stale_reason"] for row in rows
        ), rows

    def test_unknown_architecture_is_stale(self, transitioned_store):
        rows = stale_entry_rows(transitioned_store, {})
        assert rows
        assert all("no live registry" in row["stale_reason"] for row in rows)
