"""Drift detection over the metric catalog.

The catalog's append-only version history is a time series of analysis
outputs.  Drift detection walks every (arch, metric, config) key,
structurally diffs consecutive versions (the same
:meth:`~repro.serve.catalog.CatalogDiff.to_payload` format that
``repro-cat catalog diff --json`` emits), and aggregates the changes into
typed anomalies:

* ``coefficient-drift`` / ``term-change`` — the definition's linear
  combination moved (changed coefficients, or events entering/leaving);
* ``error-shift`` — the Equation-5 backward error moved;
* ``trust-transition`` — the leave-one-kernel-out certification level
  changed (certified -> caution -> reject, or back);
* ``verdict-flip`` — a composing event's counter-validation verdict
  changed between versions (the Röhl signal: the *event* moved under the
  metric);
* ``registry-change`` / ``guard-change`` — the event registry digest or
  the fired guard ladder differ between versions.

Staleness (:func:`stale_entry_rows`) is the complementary read-side
check: entries the catalog's freshness rule
(:meth:`~repro.serve.catalog.CatalogEntry.staleness`) judges stale
against the *live* registry are flagged so vet tooling can target
exactly what needs revalidation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.events.registry import EventRegistry
from repro.serve.catalog import MetricCatalogStore, diff_entries

__all__ = [
    "ANOMALY_KINDS",
    "DriftAnomaly",
    "DriftReport",
    "anomalies_from_diff",
    "detect_drift",
    "stale_entry_rows",
]

ANOMALY_KINDS = (
    "coefficient-drift",
    "term-change",
    "error-shift",
    "trust-transition",
    "verdict-flip",
    "registry-change",
    "guard-change",
)


@dataclass(frozen=True)
class DriftAnomaly:
    """One observed change between two consecutive catalog versions."""

    kind: str
    arch: str
    metric: str
    config_digest: str
    version_a: int
    version_b: int
    detail: str

    def __post_init__(self) -> None:
        if self.kind not in ANOMALY_KINDS:
            raise ValueError(
                f"unknown anomaly kind {self.kind!r}; "
                f"expected one of {ANOMALY_KINDS}"
            )

    def describe(self) -> str:
        return (
            f"[{self.kind}] {self.arch}/{self.metric} "
            f"v{self.version_a}->v{self.version_b}: {self.detail}"
        )

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "arch": self.arch,
            "metric": self.metric,
            "config_digest": self.config_digest,
            "version_a": self.version_a,
            "version_b": self.version_b,
            "detail": self.detail,
        }


@dataclass
class DriftReport:
    """Aggregated drift over a catalog (or one architecture of it)."""

    keys_scanned: int = 0
    versions_scanned: int = 0
    anomalies: List[DriftAnomaly] = field(default_factory=list)

    @property
    def flagged(self) -> bool:
        return bool(self.anomalies)

    def by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for anomaly in self.anomalies:
            counts[anomaly.kind] = counts.get(anomaly.kind, 0) + 1
        return counts

    def summary(self) -> str:
        lines = [
            f"catalog drift: {self.keys_scanned} key(s), "
            f"{self.versions_scanned} version(s) scanned",
        ]
        if not self.anomalies:
            lines.append("no anomalies: every key is stable across versions")
            return "\n".join(lines)
        counts = self.by_kind()
        lines.append(
            "anomalies: "
            + ", ".join(f"{kind}={counts[kind]}" for kind in sorted(counts))
        )
        for anomaly in self.anomalies:
            lines.append("  " + anomaly.describe())
        return "\n".join(lines)

    def to_payload(self) -> dict:
        return {
            "keys_scanned": self.keys_scanned,
            "versions_scanned": self.versions_scanned,
            "flagged": self.flagged,
            "by_kind": self.by_kind(),
            "anomalies": [a.to_payload() for a in self.anomalies],
        }


def anomalies_from_diff(
    payload: Mapping, arch: str, config_digest: str
) -> List[DriftAnomaly]:
    """Typed anomalies from one structured diff payload.

    ``payload`` is the :meth:`CatalogDiff.to_payload` format — the same
    JSON ``repro-cat catalog diff --json`` prints, so externally produced
    diffs feed the detector unchanged.
    """
    if payload.get("identical"):
        return []
    metric = payload["metric"]
    va, vb = int(payload["version_a"]), int(payload["version_b"])

    def anomaly(kind: str, detail: str) -> DriftAnomaly:
        return DriftAnomaly(
            kind=kind,
            arch=arch,
            metric=metric,
            config_digest=config_digest,
            version_a=va,
            version_b=vb,
            detail=detail,
        )

    out: List[DriftAnomaly] = []
    added = payload.get("added_terms", {})
    removed = payload.get("removed_terms", {})
    if added or removed:
        parts = []
        if added:
            parts.append(f"events entered: {', '.join(sorted(added))}")
        if removed:
            parts.append(f"events left: {', '.join(sorted(removed))}")
        out.append(anomaly("term-change", "; ".join(parts)))
    changed = payload.get("changed_terms", {})
    if changed:
        worst_event, worst_rel = "", -1.0
        for event, (old, new) in changed.items():
            scale = max(abs(old), abs(new), 1e-300)
            rel = abs(new - old) / scale
            if rel > worst_rel:
                worst_event, worst_rel = event, rel
        out.append(
            anomaly(
                "coefficient-drift",
                f"{len(changed)} coefficient(s) moved; worst {worst_event} "
                f"({worst_rel:.3g} relative)",
            )
        )
    error_a, error_b = payload.get("error_a", 0.0), payload.get("error_b", 0.0)
    if error_a != error_b:
        out.append(
            anomaly("error-shift", f"error {error_a:.6e} -> {error_b:.6e}")
        )
    trust_a, trust_b = payload.get("trust_a"), payload.get("trust_b")
    if trust_a != trust_b:
        out.append(anomaly("trust-transition", f"{trust_a} -> {trust_b}"))
    for event, (old, new) in payload.get("verdict_flips", {}).items():
        out.append(
            anomaly(
                "verdict-flip",
                f"{event}: {old or 'no verdict'} -> {new or 'no verdict'}",
            )
        )
    if payload.get("events_digest_changed"):
        out.append(
            anomaly("registry-change", "event registry changed between versions")
        )
    guards_a = tuple(payload.get("guards_a", ()))
    guards_b = tuple(payload.get("guards_b", ()))
    if guards_a != guards_b:
        out.append(
            anomaly("guard-change", f"{list(guards_a)} -> {list(guards_b)}")
        )
    return out


def detect_drift(
    store: MetricCatalogStore, arch: Optional[str] = None
) -> DriftReport:
    """Scan a catalog's full version history for drift anomalies.

    Every consecutive version pair of every key is diffed; keys with a
    single version contribute no anomalies (there is nothing to drift
    from).  Deduplicated publishes never create versions, so every pair
    here is a genuine change — the report explains *what kind*.
    """
    report = DriftReport()
    for row in store.list_entries(arch):
        history = store.history(
            row["arch"], row["metric"], row["config_digest"]
        )
        report.keys_scanned += 1
        report.versions_scanned += len(history)
        for older, newer in zip(history, history[1:]):
            payload = diff_entries(older, newer).to_payload()
            report.anomalies.extend(
                anomalies_from_diff(payload, row["arch"], row["config_digest"])
            )
    return report


def stale_entry_rows(
    store: MetricCatalogStore,
    registries: Mapping[str, EventRegistry],
    arch: Optional[str] = None,
) -> List[dict]:
    """Catalog keys whose latest entry is stale against the live registry.

    ``registries`` maps architecture names to their current event
    registries.  Each entry is judged by :meth:`CatalogEntry.staleness`
    against the live whole-registry digest and the live dependency map
    of the entry's domain — the scope every writer records — so edited,
    removed and added events all stale it.  Architectures with no live
    registry are flagged too — they cannot be revalidated at all.
    """
    from repro.incr.engine import domain_event_digests

    evidence: Dict[Tuple[str, str], Tuple[str, Dict[str, str]]] = {}
    rows: List[dict] = []
    for row in store.list_entries(arch):
        entry = store.get(row["arch"], row["metric"], row["config_digest"])
        if entry is None:
            continue
        registry = registries.get(entry.arch)
        if registry is None:
            reason = f"no live registry known for architecture {entry.arch!r}"
        else:
            key = (entry.arch, entry.domain)
            if key not in evidence:
                evidence[key] = (
                    registry.content_digest(),
                    domain_event_digests(registry, entry.domain),
                )
            reason = entry.staleness(*evidence[key])
        if reason is not None:
            stale_row = dict(row)
            stale_row["stale_reason"] = reason
            rows.append(stale_row)
    return rows
