"""The robustness audit: every injected fault, and what became of it.

The acceptance bar for the fault-injection substrate is accountability:
a fault may be *recovered* (repaired or successfully retried), *excluded*
(a corrupted repetition rejected by quorum), or *degraded* (an event lost,
pipeline continuing without it) — but never silent.  The report is where
that bar is enforced: it reconciles the injector's record log against the
scrubber's actions and the retry bookkeeping, and :meth:`unaccounted`
returns whatever slipped through (tests assert it is empty).

Reports are plain picklable dataclasses so sweep workers can ship them
back inside :class:`~repro.core.pipeline.PipelineResult`, and
:func:`merge_reports` folds many per-task reports into one sweep-level
audit for the CLI table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.faults.model import FaultRecord
from repro.faults.scrub import ScrubAction

__all__ = ["RobustnessReport", "merge_reports"]

#: Scrub action -> fault outcome vocabulary.
_ACTION_OUTCOME = {
    "imputed": "recovered",
    "excluded": "excluded",
    "dropped-event": "degraded",
}


@dataclass
class RobustnessReport:
    """Audit trail of one faulted execution (pipeline or sweep task).

    Attributes
    ----------
    context:
        What was being executed (e.g. ``aurora:branch``).
    records:
        Every fault the injector fired, with its final outcome.
    scrub_actions:
        Every repair the scrubber performed (including repairs of
        organically corrupted data, not only injected faults).
    retries:
        Human-readable notes of retry decisions ("measurement attempt 0
        failed, retried", "task crashed, attempt 2 succeeded").
    degraded:
        Whether the pipeline lost events and continued in degraded mode.
    cache_quarantined:
        Keys of cache entries this execution's cache layer quarantined.
        Carried in the report because in a shared-cache sweep the task
        that *corrupts* an entry and the task that *detects* it are
        usually different: reconciliation needs the union of everyone's
        quarantines (see :func:`merge_reports`).
    """

    context: str = ""
    records: List[FaultRecord] = field(default_factory=list)
    scrub_actions: List[ScrubAction] = field(default_factory=list)
    retries: List[str] = field(default_factory=list)
    degraded: bool = False
    cache_quarantined: List[str] = field(default_factory=list)

    # -- reconciliation -----------------------------------------------
    def reconcile_scrub(self, actions: Sequence[ScrubAction]) -> None:
        """Fold scrub decisions in and settle matching injected records.

        Cell-level records settle against the action at the same
        ``(event, coords)``; an event-level drop settles every remaining
        record of that event as degraded.
        """
        self.scrub_actions.extend(actions)
        by_cell: Dict[object, str] = {}
        dropped = set()
        for action in actions:
            outcome = _ACTION_OUTCOME.get(action.action)
            if outcome is None:
                continue
            if action.action == "dropped-event":
                dropped.add(action.event)
            elif action.coords is not None:
                by_cell[(action.event, action.coords)] = outcome
        for record in self.records:
            if record.outcome != "injected":
                continue
            if record.event in dropped:
                record.outcome = "degraded"
            elif record.cell_key is not None and record.cell_key in by_cell:
                record.outcome = by_cell[record.cell_key]
        if dropped:
            self.degraded = True

    def mark_retried(self, kind: str, context: str, note: str) -> None:
        """Settle the open records of one failure site as recovered-by-retry."""
        self.retries.append(note)
        for record in self.records:
            if (
                record.outcome == "injected"
                and record.kind == kind
                and record.context == context
            ):
                record.outcome = "recovered"

    def mark_cache_recovered(self, quarantined_keys: Iterable[str]) -> None:
        """Settle cache-corruption records whose entry was quarantined and
        transparently re-measured."""
        keys = set(quarantined_keys)
        for record in self.records:
            if record.outcome == "injected" and record.kind == "cache-corruption":
                if any(key in record.context for key in keys):
                    record.outcome = "recovered"

    # -- audit ---------------------------------------------------------
    def unaccounted(self) -> List[FaultRecord]:
        """Injected faults no layer claimed — must be empty."""
        return [r for r in self.records if r.outcome == "injected"]

    @property
    def n_injected(self) -> int:
        return len(self.records)

    def outcome_counts(self) -> Dict[str, Counter]:
        """``{kind: Counter(outcome -> n)}`` over all records."""
        counts: Dict[str, Counter] = {}
        for record in self.records:
            counts.setdefault(record.kind, Counter())[record.outcome] += 1
        return counts

    def table(self) -> str:
        """Aligned text table: injected faults vs their dispositions."""
        header = f"{'fault kind':<18} {'injected':>8} {'recovered':>9} {'excluded':>8} {'degraded':>8} {'silent':>6}"
        lines = [header, "-" * len(header)]
        counts = self.outcome_counts()
        for kind in sorted(counts):
            c = counts[kind]
            total = sum(c.values())
            lines.append(
                f"{kind:<18} {total:>8} {c.get('recovered', 0):>9} "
                f"{c.get('excluded', 0):>8} {c.get('degraded', 0):>8} "
                f"{c.get('injected', 0):>6}"
            )
        if not counts:
            lines.append(f"{'(none)':<18} {0:>8} {0:>9} {0:>8} {0:>8} {0:>6}")
        if self.retries:
            lines.append("")
            lines.append("retries:")
            lines.extend(f"  {note}" for note in self.retries)
        injected_cells = {r.cell_key for r in self.records}
        extra_repairs = [
            a
            for a in self.scrub_actions
            if (a.event, a.coords) not in injected_cells
            and a.action != "dropped-event"
        ]
        if extra_repairs:
            lines.append("")
            lines.append(
                f"scrub repairs of non-injected corruption: {len(extra_repairs)}"
            )
        status = "DEGRADED" if self.degraded else "ok"
        lines.append("")
        lines.append(
            f"status: {status}; {self.n_injected} fault(s) injected, "
            f"{len(self.unaccounted())} unaccounted"
        )
        return "\n".join(lines)


def merge_reports(
    reports: Iterable[Optional["RobustnessReport"]], context: str = "sweep"
) -> RobustnessReport:
    """Fold per-task reports into one sweep-level audit.

    Cache-corruption records are reconciled against the *union* of every
    task's quarantined keys: with a shared cache directory, the task that
    corrupts an entry and the task whose read detects it are usually
    different, so the per-task reconciliation cannot settle them.
    """
    merged = RobustnessReport(context=context)
    for report in reports:
        if report is None:
            continue
        merged.records.extend(report.records)
        merged.scrub_actions.extend(report.scrub_actions)
        merged.retries.extend(
            f"[{report.context}] {note}" for note in report.retries
        )
        merged.degraded = merged.degraded or report.degraded
        merged.cache_quarantined.extend(report.cache_quarantined)
    if merged.cache_quarantined:
        merged.mark_cache_recovered(merged.cache_quarantined)
    return merged
