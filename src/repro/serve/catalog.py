"""The versioned, content-addressed metric catalog.

The pipeline produces trust-stamped :class:`~repro.core.metrics.MetricDefinition`
objects, but until now every consumer had to re-run the whole analysis to
get one.  :class:`MetricCatalogStore` makes definitions durable: each is
persisted under the key ``(architecture, metric, config digest)`` with an
append-only version history, so a served definition can be looked up,
compared across catalog revisions, and — crucially — trusted, because
everything that certifies it travels with it:

* the coefficient vector, **bit-exact** (hex of the little-endian float64
  bytes; the JSON float list is a human-readable mirror),
* the Equation-5 backward error and composability verdict,
* the :class:`~repro.guard.certify.TrustScore` stamp and every guard rung
  that fired during selection and composition,
* lineage: the seed, the pipeline-config repr and digest, the event-set
  digest of the registry the measurement ran over, and (when the run was
  traced) a digest of its :mod:`repro.obs` trace.

Storage layout (all writes atomic: staged file + ``os.replace``)::

    root/
      log.jsonl                                # append-only version log
      entries/<arch>/<metric-slug>/<config-digest>/v0001.json

Invalidation: the config digest is part of the key, so a changed
threshold simply misses.  A changed *event registry* would silently serve
stale definitions — so every entry records the registry evidence it was
derived from (the whole-registry ``events_digest`` and the per-event
``event_digests`` of its domain), and :meth:`CatalogEntry.staleness` is
the one rule every reader applies to the caller's current evidence; a
stale entry is reported as a miss (and counted on the
``catalog.invalidated`` counter) instead of a hit.  History is never
destroyed: invalidation is a read-side decision, the version log keeps
the full record.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.guard.certify import TrustScore
from repro.guard.health import NumericalHealth
from repro.io.digest import json_digest, sha256_hex
from repro.io.durability import (
    durable_append,
    durable_replace,
    durable_write,
    fsync_dir,
)
from repro.obs import get_tracer

if TYPE_CHECKING:
    from repro.core.metrics import MetricDefinition
    from repro.core.pipeline import PipelineConfig, PipelineResult

__all__ = [
    "CatalogDiff",
    "CatalogEntry",
    "FsckReport",
    "LogCompaction",
    "MetricCatalogStore",
    "analysis_config_digest",
    "entries_from_result",
    "metric_slug",
]

#: On-disk payload format version (bumped on incompatible changes).
FORMAT_VERSION = 1


def metric_slug(metric: str) -> str:
    """Filesystem-safe directory name for a metric: readable stem plus a
    short content hash (names with spaces/punctuation stay unambiguous)."""
    stem = re.sub(r"[^a-z0-9]+", "-", metric.lower()).strip("-") or "metric"
    return f"{stem[:48]}-{sha256_hex(metric, length=8)}"


def analysis_config_digest(
    domain: str, seed: int, config: "PipelineConfig"
) -> str:
    """The catalog key's third coordinate: everything besides architecture
    and metric name that determines a definition — the domain, the node
    seed, and every pipeline threshold (via ``PipelineConfig.digest``)."""
    return json_digest(
        {"domain": domain, "seed": seed, "config": config.digest()}, length=16
    )


def _coeffs_to_hex(coefficients: np.ndarray) -> str:
    return np.asarray(coefficients, dtype="<f8").tobytes().hex()


def _coeffs_from_hex(blob: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(blob), dtype="<f8").copy()


@dataclass(frozen=True)
class CatalogEntry:
    """One persisted metric definition with its full trust lineage."""

    arch: str
    domain: str
    metric: str
    seed: int
    config_digest: str
    config_repr: str
    events_digest: str
    event_names: Tuple[str, ...]
    coefficients_hex: str
    error: float
    composable: bool
    degraded: bool = False
    #: Conditioning sentinel record of this metric's composition solve
    #: (carries the guard rungs that fired).
    health: Optional[NumericalHealth] = None
    #: Fallback rungs fired by the shared QRCP selection stage.
    qrcp_guards: Tuple[str, ...] = ()
    trust: Optional[TrustScore] = None
    #: Section VI-D snapped terms, for display and preset export.
    rounded_terms: Dict[str, float] = field(default_factory=dict)
    #: Per-event dependency digests: ``full name -> content digest`` of
    #: every registry event this entry's analysis *could* have consumed
    #: (the whole measured domain, not just the selected events — an
    #: added event can change the selection).
    event_digests: Dict[str, str] = field(default_factory=dict)
    #: Counter-validation evidence (the ``repro.vet`` stamp payload:
    #: per-composing-event verdicts, prior-excluded events, campaign
    #: provenance).  None when the defining run carried no trust priors.
    #: Part of the content digest when present — a verdict flip is an
    #: analysis-relevant change and must version the entry, which is what
    #: the drift detector watches for.
    vet: Optional[dict] = None
    #: Ingestion provenance (the ``repro.ingest`` payload: collector,
    #: uarch family, per-source-file digests, baseline calibration,
    #: column quality flags, unmapped events).  None for simulated runs.
    #: Part of the content digest when present — a re-ingest from
    #: different source bytes is a different definition even if the
    #: numbers agree, while a bit-identical re-ingest must dedup.
    provenance: Optional[dict] = None
    #: sha256 of the run's canonical trace JSONL (None for untraced runs).
    trace_digest: Optional[str] = None
    #: Assigned by the store on ``put`` (0 = not yet stored).
    version: int = 0

    @property
    def coefficients(self) -> np.ndarray:
        """The bit-exact coefficient vector."""
        return _coeffs_from_hex(self.coefficients_hex)

    @property
    def guards_fired(self) -> Tuple[str, ...]:
        """Composition-solve guard stamps (empty on a healthy fit)."""
        return self.health.guards_fired if self.health is not None else ()

    def content_digest(self) -> str:
        """Content address over the payload minus the assigned version
        and the trace digest — trace exports carry wall-clock stage
        timings, so two bit-identical analyses trace differently; lineage
        must not defeat dedup."""
        payload = self.to_payload()
        del payload["version"], payload["trace_digest"]
        return json_digest(payload, length=16)

    def staleness(
        self,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[str]:
        """Why this entry is stale against the caller's registry
        evidence, or None when it is fresh — the catalog's one freshness
        rule, shared by disk reads, shard replicas and drift tooling.

        The entry is fresh when the caller's whole-registry digest
        equals the recorded ``events_digest``, or its dependency map
        equals the recorded ``event_digests`` (an edit elsewhere in the
        registry must not invalidate).  With no evidence it is fresh.
        The reason names the first added (``+``), removed (``-``) or
        changed (``~``) events and their total.
        """
        if (
            events_digest == self.events_digest
            or event_digests == self.event_digests
        ):
            return None
        if event_digests is None:
            return None if events_digest is None else "event registry changed"
        recorded = self.event_digests
        moved = sorted(
            name
            for name in recorded.keys() | event_digests.keys()
            if recorded.get(name) != event_digests.get(name)
        )
        sample = ", ".join(
            ("-" if name not in event_digests else "~" if name in recorded else "+")
            + name
            for name in moved[:3]
        )
        more = ", ..." if len(moved) > 3 else ""
        return f"{len(moved)} event digest(s) differ: {sample}{more}"

    def definition(self) -> "MetricDefinition":
        """Reconstruct the definition, coefficient bytes and trust stamp
        bit-identical to the pipeline's output."""
        from repro.core.metrics import MetricDefinition
        from repro.vet.priors import VetStamp

        return MetricDefinition(
            metric=self.metric,
            event_names=tuple(self.event_names),
            coefficients=self.coefficients,
            error=self.error,
            degraded=self.degraded,
            health=self.health,
            trust=self.trust,
            vet=VetStamp.from_payload(self.vet),
        )

    # -- payload -------------------------------------------------------
    def to_payload(self) -> dict:
        trust = None
        if self.trust is not None:
            trust = {
                "level": self.trust.level,
                "reasons": list(self.trust.reasons),
                "coefficient_spread": self.trust.coefficient_spread,
                "error_spread": self.trust.error_spread,
                "n_holdouts": self.trust.n_holdouts,
                "n_skipped": self.trust.n_skipped,
                "suspect_events": list(self.trust.suspect_events),
            }
        health = None
        if self.health is not None:
            health = {
                "condition_estimate": self.health.condition_estimate,
                "rank_gap": self.health.rank_gap,
                "pivot_growth": self.health.pivot_growth,
                "residual_bound": self.health.residual_bound,
                "refinement_iterations": self.health.refinement_iterations,
                "guards_fired": list(self.health.guards_fired),
                "suspect_columns": list(self.health.suspect_columns),
            }
        return {
            "format": FORMAT_VERSION,
            "version": self.version,
            "arch": self.arch,
            "domain": self.domain,
            "metric": self.metric,
            "seed": self.seed,
            "config_digest": self.config_digest,
            "config": self.config_repr,
            "events_digest": self.events_digest,
            "event_names": list(self.event_names),
            "coefficients_hex": self.coefficients_hex,
            "coefficients": [float(c) for c in self.coefficients],
            "error": self.error,
            "composable": self.composable,
            "degraded": self.degraded,
            "health": health,
            "qrcp_guards": list(self.qrcp_guards),
            "trust": trust,
            "rounded_terms": dict(self.rounded_terms),
            "event_digests": dict(self.event_digests),
            "vet": dict(self.vet) if self.vet else None,
            "provenance": dict(self.provenance) if self.provenance else None,
            "trace_digest": self.trace_digest,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CatalogEntry":
        fmt = payload.get("format")
        if fmt != FORMAT_VERSION:
            raise ValueError(
                f"unsupported catalog entry format {fmt!r} "
                f"(this reader speaks {FORMAT_VERSION})"
            )
        trust = None
        if payload.get("trust") is not None:
            t = payload["trust"]
            trust = TrustScore(
                level=t["level"],
                reasons=tuple(t["reasons"]),
                coefficient_spread=t["coefficient_spread"],
                error_spread=t["error_spread"],
                n_holdouts=t["n_holdouts"],
                n_skipped=t["n_skipped"],
                suspect_events=tuple(t["suspect_events"]),
            )
        health = None
        if payload.get("health") is not None:
            h = payload["health"]
            health = NumericalHealth(
                condition_estimate=h["condition_estimate"],
                rank_gap=h["rank_gap"],
                pivot_growth=h["pivot_growth"],
                residual_bound=h["residual_bound"],
                refinement_iterations=h["refinement_iterations"],
                guards_fired=tuple(h["guards_fired"]),
                suspect_columns=tuple(h["suspect_columns"]),
            )
        return cls(
            arch=payload["arch"],
            domain=payload["domain"],
            metric=payload["metric"],
            seed=payload["seed"],
            config_digest=payload["config_digest"],
            config_repr=payload["config"],
            events_digest=payload["events_digest"],
            event_names=tuple(payload["event_names"]),
            coefficients_hex=payload["coefficients_hex"],
            error=payload["error"],
            composable=payload["composable"],
            degraded=payload.get("degraded", False),
            health=health,
            qrcp_guards=tuple(payload.get("qrcp_guards", ())),
            trust=trust,
            rounded_terms=dict(payload.get("rounded_terms", {})),
            event_digests=dict(payload.get("event_digests", {})),
            vet=payload.get("vet"),
            provenance=payload.get("provenance"),
            trace_digest=payload.get("trace_digest"),
            version=payload["version"],
        )


def entries_from_result(
    result: "PipelineResult",
    arch: str,
    seed: int,
    events_digest: str,
    trace_digest: Optional[str] = None,
    event_digests: Optional[Dict[str, str]] = None,
    provenance: Optional[dict] = None,
) -> List[CatalogEntry]:
    """Catalog entries for every metric a pipeline run composed.

    ``event_digests`` is the per-event dependency map of the run's
    measured domain (``EventRegistry.event_digests()`` of the domain
    sub-registry); recording it lets ``repro.incr`` invalidate only the
    entries an edited event actually feeds.

    ``provenance`` is the ingestion-provenance payload
    (:meth:`repro.ingest.IngestBundle.provenance`) when the measurement
    came from external collector files rather than the simulator; it is
    recorded verbatim on every entry of the run.
    """
    config_digest = analysis_config_digest(result.domain, seed, result.config)
    qrcp_guards = (
        tuple(result.qrcp.health.guards_fired)
        if result.qrcp.health is not None
        else ()
    )
    entries = []
    for name, definition in result.metrics.items():
        rounded = result.rounded_metrics.get(name)
        entries.append(
            CatalogEntry(
                arch=arch,
                domain=result.domain,
                metric=name,
                seed=seed,
                config_digest=config_digest,
                config_repr=repr(result.config),
                events_digest=events_digest,
                event_names=tuple(definition.event_names),
                coefficients_hex=_coeffs_to_hex(definition.coefficients),
                error=float(definition.error),
                composable=definition.composable,
                degraded=definition.degraded,
                health=definition.health,
                qrcp_guards=qrcp_guards,
                trust=definition.trust,
                rounded_terms=rounded.terms() if rounded is not None else {},
                event_digests=dict(event_digests or {}),
                vet=(
                    definition.vet.to_payload()
                    if definition.vet is not None
                    else None
                ),
                provenance=dict(provenance) if provenance else None,
                trace_digest=trace_digest,
            )
        )
    return entries


@dataclass
class CatalogDiff:
    """Structured difference between two versions of one definition."""

    metric: str
    version_a: int
    version_b: int
    added_terms: Dict[str, float] = field(default_factory=dict)
    removed_terms: Dict[str, float] = field(default_factory=dict)
    changed_terms: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    error_a: float = 0.0
    error_b: float = 0.0
    trust_a: Optional[str] = None
    trust_b: Optional[str] = None
    guards_a: Tuple[str, ...] = ()
    guards_b: Tuple[str, ...] = ()
    events_digest_changed: bool = False
    #: Counter-validation verdicts per composing event on each side
    #: (empty when that side's run carried no vet stamp).
    vet_a: Dict[str, str] = field(default_factory=dict)
    vet_b: Dict[str, str] = field(default_factory=dict)

    @property
    def verdict_flips(self) -> Dict[str, Tuple[Optional[str], Optional[str]]]:
        """Events whose validation verdict changed between the versions
        (``None`` on a side means that side had no verdict recorded)."""
        flips: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        for event in sorted(set(self.vet_a) | set(self.vet_b)):
            old, new = self.vet_a.get(event), self.vet_b.get(event)
            if old != new:
                flips[event] = (old, new)
        return flips

    @property
    def identical(self) -> bool:
        return not (
            self.added_terms
            or self.removed_terms
            or self.changed_terms
            or self.error_a != self.error_b
            or self.trust_a != self.trust_b
            or self.guards_a != self.guards_b
            or self.events_digest_changed
            or self.vet_a != self.vet_b
        )

    def render(self) -> str:
        head = f"{self.metric}: v{self.version_a} -> v{self.version_b}"
        if self.identical:
            return f"{head}: identical"
        lines = [head]
        for event in sorted(self.added_terms):
            lines.append(f"  + {self.added_terms[event]:+g} x {event}")
        for event in sorted(self.removed_terms):
            lines.append(f"  - {self.removed_terms[event]:+g} x {event}")
        for event in sorted(self.changed_terms):
            old, new = self.changed_terms[event]
            # Shortest-round-trip floats: a bit-level drift must not
            # render as "1 -> 1".
            lines.append(f"  ~ {event}: {old!r} -> {new!r}")
        if self.error_a != self.error_b:
            lines.append(f"  error: {self.error_a:.6e} -> {self.error_b:.6e}")
        if self.trust_a != self.trust_b:
            lines.append(f"  trust: {self.trust_a} -> {self.trust_b}")
        if self.guards_a != self.guards_b:
            lines.append(
                f"  guards: {list(self.guards_a)} -> {list(self.guards_b)}"
            )
        if self.events_digest_changed:
            lines.append("  event registry changed between versions")
        for event, (old, new) in self.verdict_flips.items():
            lines.append(
                f"  vet: {event}: {old or 'no verdict'} -> {new or 'no verdict'}"
            )
        return "\n".join(lines)

    def to_payload(self) -> dict:
        """Machine-readable mirror of :meth:`render` — the format the
        drift detector (and ``catalog diff --json``) consumes."""
        return {
            "metric": self.metric,
            "version_a": self.version_a,
            "version_b": self.version_b,
            "identical": self.identical,
            "added_terms": dict(sorted(self.added_terms.items())),
            "removed_terms": dict(sorted(self.removed_terms.items())),
            "changed_terms": {
                event: [old, new]
                for event, (old, new) in sorted(self.changed_terms.items())
            },
            "error_a": self.error_a,
            "error_b": self.error_b,
            "trust_a": self.trust_a,
            "trust_b": self.trust_b,
            "guards_a": list(self.guards_a),
            "guards_b": list(self.guards_b),
            "events_digest_changed": self.events_digest_changed,
            "vet_a": dict(sorted(self.vet_a.items())),
            "vet_b": dict(sorted(self.vet_b.items())),
            "verdict_flips": {
                event: [old, new]
                for event, (old, new) in self.verdict_flips.items()
            },
        }


def diff_entries(a: CatalogEntry, b: CatalogEntry) -> CatalogDiff:
    """Structured diff of two entries' definitions (raw coefficients,
    not the rounded display terms — bit drift must be visible)."""
    terms_a = {
        e: float(c) for e, c in zip(a.event_names, a.coefficients) if c != 0.0
    }
    terms_b = {
        e: float(c) for e, c in zip(b.event_names, b.coefficients) if c != 0.0
    }
    diff = CatalogDiff(
        metric=b.metric,
        version_a=a.version,
        version_b=b.version,
        error_a=a.error,
        error_b=b.error,
        trust_a=a.trust.level if a.trust is not None else None,
        trust_b=b.trust.level if b.trust is not None else None,
        guards_a=a.qrcp_guards + a.guards_fired,
        guards_b=b.qrcp_guards + b.guards_fired,
        events_digest_changed=a.events_digest != b.events_digest,
        vet_a=dict((a.vet or {}).get("verdicts", {})),
        vet_b=dict((b.vet or {}).get("verdicts", {})),
    )
    for event, coeff in terms_b.items():
        if event not in terms_a:
            diff.added_terms[event] = coeff
        elif terms_a[event] != coeff:
            diff.changed_terms[event] = (terms_a[event], coeff)
    for event, coeff in terms_a.items():
        if event not in terms_b:
            diff.removed_terms[event] = coeff
    return diff


class MetricCatalogStore:
    """On-disk versioned catalog of metric definitions.

    Writes are atomic (staged file + ``os.replace``), version allocation
    races are resolved with ``os.link``'s exclusive-create semantics, and
    every successful ``put`` appends one line to the ``log.jsonl``
    version log — the log is the catalog's audit trail and is only
    rewritten by explicit :meth:`compact_log` / :meth:`fsck` repair.

    With ``durable=True`` (the default) publication follows full fsync
    discipline: staged contents are synced before the rename, the parent
    directory is synced after it, and log appends are synced — a power
    loss can cost at most the in-flight publication, never a previously
    acknowledged one, and what it leaves behind is exactly what
    :meth:`fsck` detects and quarantines.

    ``failpoint`` is the crash-simulation seam used by the serve-layer
    chaos harness: a callable ``site -> action`` consulted at the
    publication site.  Supported actions: ``"torn"`` (write a truncated
    version file and "lose power" — no fsync, no log record),
    ``"unlogged"`` (publish the version file but lose power before the
    log append).  ``None`` publishes normally.
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        durable: bool = True,
        failpoint: Optional[Callable[[str], Optional[str]]] = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.durable = durable
        self.failpoint = failpoint
        self._log_lock = threading.Lock()

    # -- paths ---------------------------------------------------------
    @property
    def log_path(self) -> Path:
        return self.root / "log.jsonl"

    def _entry_dir(self, arch: str, metric: str, config_digest: str) -> Path:
        return self.root / "entries" / arch / metric_slug(metric) / config_digest

    @staticmethod
    def _version_path(entry_dir: Path, version: int) -> Path:
        return entry_dir / f"v{version:04d}.json"

    @staticmethod
    def _versions_in(entry_dir: Path) -> List[int]:
        if not entry_dir.is_dir():
            return []
        versions = []
        for path in entry_dir.glob("v*.json"):
            try:
                versions.append(int(path.stem[1:]))
            except ValueError:
                continue
        return sorted(versions)

    # -- writes --------------------------------------------------------
    def put(self, entry: CatalogEntry) -> CatalogEntry:
        """Persist ``entry`` as the next version of its key.

        Idempotent on content: when the latest stored version already has
        this entry's content digest, no new version is written and the
        existing entry is returned (counted on ``catalog.dedup``) —
        re-serving an unchanged analysis must not grow the history.
        """
        entry_dir = self._entry_dir(entry.arch, entry.metric, entry.config_digest)
        entry_dir.mkdir(parents=True, exist_ok=True)
        content = entry.content_digest()
        while True:
            versions = self._versions_in(entry_dir)
            if versions:
                latest = self._load(self._version_path(entry_dir, versions[-1]))
                if latest is not None and latest.content_digest() == content:
                    get_tracer().incr("catalog.dedup")
                    return latest
            version = (versions[-1] + 1) if versions else 1
            stored = dataclasses.replace(entry, version=version)
            final = self._version_path(entry_dir, version)
            staged = entry_dir / f".v{version:04d}.{os.getpid()}.staged"
            blob = json.dumps(stored.to_payload(), indent=2, sort_keys=True)
            action = (
                self.failpoint(self._publish_site(stored))
                if self.failpoint is not None
                else None
            )
            if action == "torn":
                # Simulated power loss mid-publish: a torn page of the
                # version file reaches disk, nothing else does.  Readers
                # treat the torn file as a miss; fsck quarantines it.
                final.write_text(blob[: max(1, len(blob) // 2)])
                get_tracer().incr("catalog.chaos.torn_publication")
                return dataclasses.replace(entry, version=0)
            durable_write(staged, blob, durable=self.durable)
            try:
                # Exclusive publish: a racing writer that claimed this
                # version number first wins; we retry with the next one.
                os.link(staged, final)
            except FileExistsError:
                staged.unlink()
                continue
            except OSError:
                # Filesystem without hard links: fall back to an atomic,
                # last-writer-wins rename (single-writer deployments).
                durable_replace(staged, final, durable=self.durable)
            else:
                staged.unlink()
                if self.durable:
                    fsync_dir(entry_dir)
            if action == "unlogged":
                # Simulated power loss after the version file is durable
                # but before the log append: fsck re-appends the record.
                get_tracer().incr("catalog.chaos.unlogged_publication")
                return stored
            self._append_log(stored, content)
            get_tracer().incr("catalog.stores")
            return stored

    @staticmethod
    def _publish_site(entry: CatalogEntry) -> str:
        """The deterministic chaos-site name of one publication."""
        return (
            f"catalog.publish:{entry.arch}:{metric_slug(entry.metric)}:"
            f"{entry.config_digest}:v{entry.version:04d}"
        )

    @staticmethod
    def _log_record(entry: CatalogEntry, content_digest: str) -> dict:
        return {
            "op": "put",
            "arch": entry.arch,
            "metric": entry.metric,
            "config_digest": entry.config_digest,
            "version": entry.version,
            "content_digest": content_digest,
            "events_digest": entry.events_digest,
        }

    def _append_log(self, entry: CatalogEntry, content_digest: str) -> None:
        line = json.dumps(self._log_record(entry, content_digest), sort_keys=True)
        with self._log_lock:
            durable_append(self.log_path, line + "\n", durable=self.durable)

    # -- reads ---------------------------------------------------------
    @staticmethod
    def _load(path: Path) -> Optional[CatalogEntry]:
        try:
            return CatalogEntry.from_payload(json.loads(path.read_text()))
        except (OSError, ValueError, KeyError):
            return None

    def get(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        version: Optional[int] = None,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[CatalogEntry]:
        """One stored version (the latest when ``version`` is None).

        With freshness evidence (``events_digest`` and/or
        ``event_digests``), a stale entry (:meth:`CatalogEntry.staleness`)
        is reported as a miss and counted on ``catalog.invalidated`` —
        serving a definition whose raw events no longer exist (or
        measure differently) would be silent poison.
        """
        entry_dir = self._entry_dir(arch, metric, config_digest)
        if version is None:
            versions = self._versions_in(entry_dir)
            if not versions:
                get_tracer().incr("catalog.misses")
                return None
            version = versions[-1]
        entry = self._load(self._version_path(entry_dir, version))
        if entry is None:
            get_tracer().incr("catalog.misses")
            return None
        if entry.staleness(events_digest, event_digests) is not None:
            get_tracer().incr("catalog.invalidated")
            return None
        get_tracer().incr("catalog.hits")
        return entry

    def latest(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        events_digest: Optional[str] = None,
        event_digests: Optional[Dict[str, str]] = None,
    ) -> Optional[CatalogEntry]:
        """The newest stored version of a key (staleness-checked)."""
        return self.get(
            arch,
            metric,
            config_digest,
            events_digest=events_digest,
            event_digests=event_digests,
        )

    def history(
        self, arch: str, metric: str, config_digest: str
    ) -> List[CatalogEntry]:
        """Every stored version, oldest first."""
        entry_dir = self._entry_dir(arch, metric, config_digest)
        entries = []
        for version in self._versions_in(entry_dir):
            entry = self._load(self._version_path(entry_dir, version))
            if entry is not None:
                entries.append(entry)
        return entries

    def diff(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        version_a: int,
        version_b: int,
    ) -> CatalogDiff:
        """Structured diff between two stored versions of one key."""
        entry_dir = self._entry_dir(arch, metric, config_digest)
        a = self._load(self._version_path(entry_dir, version_a))
        b = self._load(self._version_path(entry_dir, version_b))
        if a is None or b is None:
            missing = version_a if a is None else version_b
            raise KeyError(
                f"no version {missing} of ({arch!r}, {metric!r}, "
                f"{config_digest}) in the catalog"
            )
        return diff_entries(a, b)

    def list_entries(self, arch: Optional[str] = None) -> List[dict]:
        """Summary rows for every (arch, metric, config digest) key."""
        entries_root = self.root / "entries"
        if not entries_root.is_dir():
            return []
        rows = []
        for arch_dir in sorted(entries_root.iterdir()):
            if arch is not None and arch_dir.name != arch:
                continue
            for slug_dir in sorted(p for p in arch_dir.iterdir() if p.is_dir()):
                for digest_dir in sorted(
                    p for p in slug_dir.iterdir() if p.is_dir()
                ):
                    versions = self._versions_in(digest_dir)
                    if not versions:
                        continue
                    latest = self._load(
                        self._version_path(digest_dir, versions[-1])
                    )
                    if latest is None:
                        continue
                    rows.append(
                        {
                            "arch": latest.arch,
                            "domain": latest.domain,
                            "metric": latest.metric,
                            "config_digest": latest.config_digest,
                            "versions": len(versions),
                            "latest_version": latest.version,
                            "error": latest.error,
                            "composable": latest.composable,
                            "trust": (
                                latest.trust.level
                                if latest.trust is not None
                                else None
                            ),
                            "degraded": latest.degraded,
                        }
                    )
        return rows

    def log_records(self) -> List[dict]:
        """The parsed append-only version log, oldest first.

        Tolerant of a torn tail: an append interrupted by power loss can
        leave one partial final line; it is skipped here and repaired by
        :meth:`fsck`.
        """
        records, _bad = self._read_log()
        return records

    def _read_log(self) -> Tuple[List[dict], List[int]]:
        """(parsed records, 0-based indices of unparseable lines)."""
        if not self.log_path.exists():
            return [], []
        records: List[dict] = []
        bad: List[int] = []
        for index, line in enumerate(self.log_path.read_text().splitlines()):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                bad.append(index)
                continue
            if isinstance(record, dict):
                records.append(record)
            else:
                bad.append(index)
        return records, bad

    # -- degraded reads ------------------------------------------------
    def stale_latest(
        self,
        arch: str,
        metric: str,
        config_digest: str,
        max_age: Optional[float] = None,
    ) -> Optional[Tuple[CatalogEntry, float]]:
        """The newest *loadable* version and its age in seconds, with no
        freshness checks — the degraded-mode read.

        Callers must mark anything served from here ``stale=True``: the
        entry may predate a registry edit.  ``max_age`` bounds how old a
        definition may be served stale (None = unbounded); torn versions
        are skipped in favour of the newest older good one.
        """
        entry_dir = self._entry_dir(arch, metric, config_digest)
        for version in reversed(self._versions_in(entry_dir)):
            path = self._version_path(entry_dir, version)
            entry = self._load(path)
            if entry is None:
                continue
            try:
                age = max(0.0, time.time() - path.stat().st_mtime)
            except OSError:
                continue
            if max_age is not None and age > max_age:
                return None
            get_tracer().incr("catalog.stale_reads")
            return entry, age
        return None

    # -- fsck & compaction ---------------------------------------------
    @property
    def quarantine_root(self) -> Path:
        return self.root / "quarantine"

    def fsck(self, repair: bool = True) -> "FsckReport":
        """Detect (and with ``repair=True`` fix) crash damage.

        Four findings, mirroring the measurement cache's
        checksum-and-quarantine idiom:

        * **torn versions** — unparseable ``v*.json`` files (power loss
          mid-publication): moved under ``quarantine/`` so no code path
          ever parses them again (``catalog.fsck.quarantined``);
        * **staged leftovers** — ``.staged`` files whose publish never
          completed: deleted;
        * **unlogged versions** — good version files missing from
          ``log.jsonl`` (power loss between publish and log append):
          their log records are reconstructed and re-appended;
        * **orphaned log records** — log lines whose version file is
          gone (including ones just quarantined) and torn log tails:
          the log is rewritten without the unparseable lines, orphans
          are reported (the audit record survives in the report).
        """
        report = FsckReport()
        entries_root = self.root / "entries"
        on_disk: Dict[Tuple[str, str, str, int], CatalogEntry] = {}
        if entries_root.is_dir():
            for path in sorted(entries_root.rglob("*")):
                if not path.is_file():
                    continue
                rel = str(path.relative_to(self.root))
                if path.name.endswith(".staged"):
                    report.staged_removed.append(rel)
                    if repair:
                        path.unlink(missing_ok=True)
                    continue
                if not re.fullmatch(r"v\d{4,}\.json", path.name):
                    continue
                report.scanned += 1
                entry = self._load(path)
                if entry is None:
                    report.quarantined.append(rel)
                    get_tracer().incr("catalog.fsck.quarantined")
                    if repair:
                        dest = self.quarantine_root / rel
                        dest.parent.mkdir(parents=True, exist_ok=True)
                        if dest.exists():
                            dest = dest.with_suffix(
                                f".{int(time.time() * 1e6):x}.json"
                            )
                        os.replace(path, dest)
                    continue
                on_disk[
                    (entry.arch, entry.metric, entry.config_digest, entry.version)
                ] = entry

        records, bad_lines = self._read_log()
        report.log_torn_lines = len(bad_lines)
        logged = {
            (
                r.get("arch"),
                r.get("metric"),
                r.get("config_digest"),
                r.get("version"),
            )
            for r in records
        }
        relog: List[CatalogEntry] = []
        for key, entry in sorted(on_disk.items()):
            if key not in logged:
                report.relogged.append(
                    f"{key[0]}/{key[1]}/{key[2]}/v{key[3]:04d}"
                )
                relog.append(entry)
        for key in sorted(logged):
            if key not in on_disk and all(v is not None for v in key):
                report.orphaned_records.append(
                    f"{key[0]}/{key[1]}/{key[2]}/v{key[3]:04d}"
                )
        if repair:
            if bad_lines:
                # Rewrite the log without the torn lines (atomic +
                # durable) *before* re-appending unlogged versions —
                # rewriting from the pre-append snapshot would discard
                # the records appended below.
                self._rewrite_log(records)
            for entry in relog:
                self._append_log(entry, entry.content_digest())
        get_tracer().incr("catalog.fsck.runs")
        return report

    def compact_log(self) -> "LogCompaction":
        """Compact ``log.jsonl``: drop torn lines, duplicate records, and
        records whose version file no longer exists (run :meth:`fsck`
        first so orphans are accounted before their records vanish).
        The rewrite is atomic and durable."""
        records, bad = self._read_log()
        entries_root = self.root / "entries"
        kept: Dict[Tuple, dict] = {}
        dropped = len(bad)
        for record in records:
            key = (
                record.get("arch"),
                record.get("metric"),
                record.get("config_digest"),
                record.get("version"),
            )
            if all(v is not None for v in key):
                path = self._version_path(
                    self._entry_dir(key[0], key[1], key[2]), key[3]
                )
                if not path.exists():
                    dropped += 1
                    continue
            if key in kept:
                dropped += 1
            kept[key] = record  # last record wins, order preserved by dict
        before = len(records) + len(bad)
        self._rewrite_log(list(kept.values()))
        get_tracer().incr("catalog.log_compactions")
        return LogCompaction(
            records_before=before, records_after=len(kept), dropped=dropped
        )

    def _rewrite_log(self, records: List[dict]) -> None:
        body = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
        staged = self.root / f".log.{os.getpid()}.staged"
        with self._log_lock:
            durable_write(staged, body, durable=self.durable)
            durable_replace(staged, self.log_path, durable=self.durable)


@dataclass
class FsckReport:
    """What :meth:`MetricCatalogStore.fsck` found (and repaired)."""

    scanned: int = 0
    quarantined: List[str] = field(default_factory=list)
    staged_removed: List[str] = field(default_factory=list)
    relogged: List[str] = field(default_factory=list)
    orphaned_records: List[str] = field(default_factory=list)
    log_torn_lines: int = 0

    @property
    def clean(self) -> bool:
        """True when the store showed no crash damage at all."""
        return not (
            self.quarantined
            or self.staged_removed
            or self.relogged
            or self.orphaned_records
            or self.log_torn_lines
        )

    def summary(self) -> str:
        return (
            f"catalog fsck: {self.scanned} version file(s) scanned, "
            f"{len(self.quarantined)} quarantined, "
            f"{len(self.staged_removed)} staged leftover(s) removed, "
            f"{len(self.relogged)} unlogged version(s) re-appended, "
            f"{len(self.orphaned_records)} orphaned log record(s), "
            f"{self.log_torn_lines} torn log line(s)"
        )


@dataclass(frozen=True)
class LogCompaction:
    """Result of one :meth:`MetricCatalogStore.compact_log` pass."""

    records_before: int
    records_after: int
    dropped: int
