"""The closed-loop serve-layer chaos drill.

:func:`run_chaos_drill` is the executable form of the serving tier's
fault-tolerance contract.  It runs the same request plan twice:

1. **Baseline** — a plain single-process :class:`MetricService`, no
   chaos, no supervisor.  Every answer is reduced to its *definition
   digest* (the payload minus serving metadata — source, staleness,
   store-assigned version, trace lineage) and recorded as ground truth.
2. **Chaos** — a :class:`ServiceSupervisor` worker pool over a shared
   catalog root with a :class:`~repro.faults.chaos.ChaosConfig` armed,
   driven closed-loop (strictly sequential requests, so the
   deterministic per-site injection streams line up run to run) through
   the retrying :class:`~repro.serve.resilience.ResilientCatalogClient`.

Every chaos-run response is then classified against the invariant —
**bit-identical** to the baseline definition, **explicitly stale**, or a
**typed error**; anything else (a silently different coefficient, a raw
socket exception escaping the client) is a recorded violation.  After
the drive phase the drill asserts *bounded recovery* (the worker pool
returns to full strength within ``recovery_budget`` seconds) and runs
``catalog fsck`` over the shared root: torn publications must be
quarantined, surviving entries must still match the baseline.

With a zero-rate chaos config the drill degenerates to the equivalence
property: the supervised multi-worker path answers bit-identically to
single-service serving.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.io.digest import json_digest
from repro.serve.catalog import FsckReport, MetricCatalogStore
from repro.serve.resilience import ResilientCatalogClient, RetryPolicy
from repro.serve.service import MetricService, ServiceError
from repro.serve.supervisor import (
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorServer,
)

__all__ = ["ChaosReport", "definition_digest", "run_chaos_drill"]

#: Serving metadata: everything about *how* an answer was served rather
#: than *what* the metric definition is.  ``version`` is store-assigned
#: and ``trace_digest`` carries wall-clock lineage (the two keys
#: :meth:`CatalogEntry.content_digest` also drops); ``event_digests`` is
#: freshness evidence, absent from definitions computed without a
#: dependency map, so equal definitions digest equal either way.
_VOLATILE_KEYS = (
    "source",
    "stale",
    "stale_age_seconds",
    "degraded",
    "version",
    "trace_digest",
    "event_digests",
)


def definition_digest(payload: Dict[str, Any]) -> str:
    """Digest of a served metric payload minus serving metadata —
    equal digests mean bit-identical definitions."""
    stripped = {k: v for k, v in payload.items() if k not in _VOLATILE_KEYS}
    return json_digest(stripped, length=16)


@dataclass
class ChaosReport:
    """Everything one drill observed, judged against the invariant."""

    plan: List[Tuple[str, str, int]] = field(default_factory=list)
    requests: int = 0
    identical: int = 0
    stale: int = 0
    typed_errors: int = 0
    violations: List[str] = field(default_factory=list)
    recovered: bool = False
    recovery_seconds: Optional[float] = None
    fsck: Optional[FsckReport] = None
    supervisor_status: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        """The invariant held: every response was bit-identical, stale,
        or a typed error — and the pool recovered within budget."""
        return not self.violations and self.recovered

    def summary(self) -> str:
        return (
            f"chaos drill: {self.requests} request(s) — "
            f"{self.identical} identical, {self.stale} stale, "
            f"{self.typed_errors} typed error(s), "
            f"{len(self.violations)} violation(s); "
            f"recovered={self.recovered}"
            + (
                f" in {self.recovery_seconds:.1f}s"
                if self.recovery_seconds is not None
                else ""
            )
        )


def _build_plan(
    pairs: Sequence[Tuple[str, str]], requests: int, base_seed: int
) -> List[Tuple[str, str, int]]:
    """The request plan: cycle the (system, domain) pairs, bumping the
    seed each full cycle so the drill mixes fresh analyses with repeats
    (repeats exercise catalog reads and coalescing)."""
    plan = []
    for i in range(requests):
        system, domain = pairs[i % len(pairs)]
        seed = base_seed + (i // len(pairs)) % 2
        plan.append((system, domain, seed))
    return plan


async def _baseline_digests(
    plan: Sequence[Tuple[str, str, int]], cache_dir: Optional[str]
) -> Tuple[
    Dict[Tuple[str, str, int], Dict[str, str]],
    Dict[Tuple[str, str, str, int], str],
]:
    """Ground truth: every planned request answered by one plain service.

    Returns per-request digests keyed ``(system, domain, seed)`` and
    per-entry digests keyed ``(arch, domain, metric, seed)`` — the
    latter matches what a stored :class:`CatalogEntry` knows about
    itself, for the post-fsck corruption sweep.
    """
    service = MetricService(cache_dir=cache_dir)
    await service.start()
    try:
        digests: Dict[Tuple[str, str, int], Dict[str, str]] = {}
        entry_digests: Dict[Tuple[str, str, str, int], str] = {}
        for system, domain, seed in plan:
            if (system, domain, seed) in digests:
                continue
            served = await service.analyze(system, domain, seed=seed)
            digests[(system, domain, seed)] = {
                name: definition_digest(metric.to_payload())
                for name, metric in served.items()
            }
            for name, metric in served.items():
                entry = metric.entry
                entry_digests[(entry.arch, entry.domain, name, entry.seed)] = (
                    digests[(system, domain, seed)][name]
                )
        return digests, entry_digests
    finally:
        await service.stop(drain_timeout=5.0)


def run_chaos_drill(
    catalog_root: str,
    *,
    chaos_spec: str,
    cache_dir: Optional[str] = None,
    pairs: Sequence[Tuple[str, str]] = (("aurora", "branch"),),
    requests: int = 8,
    base_seed: int = 2024,
    config: Optional[SupervisorConfig] = None,
    recovery_budget: float = 30.0,
    client_retry: Optional[RetryPolicy] = None,
) -> ChaosReport:
    """Run the drill; see the module docstring for the phases.

    ``catalog_root`` must be a fresh or disposable directory — the chaos
    run publishes (and, under a torn-publication config, deliberately
    tears) entries there.
    """
    plan = _build_plan(pairs, requests, base_seed)
    report = ChaosReport(plan=plan, requests=len(plan))

    baseline, baseline_entries = asyncio.run(_baseline_digests(plan, cache_dir))

    supervisor_config = config or SupervisorConfig(
        workers=3,
        heartbeat_timeout=1.5,
        backoff_base=0.1,
        backoff_max=1.0,
        restart_intensity=10,
        stale_max_age=3600.0,
    )
    supervisor = ServiceSupervisor(
        catalog_root,
        cache_dir=cache_dir,
        config=supervisor_config,
        chaos_spec=chaos_spec,
    )
    front = SupervisorServer(supervisor)

    async def drive() -> None:
        port = await front.start()
        client = ResilientCatalogClient(
            [("127.0.0.1", port)],
            retry=client_retry
            or RetryPolicy(max_attempts=6, backoff_base=0.05, backoff_cap=0.5),
            deadline=120.0,
            breaker_factory=None,  # the drill wants retries, not fast-fail
        )
        loop = asyncio.get_running_loop()
        try:
            for system, domain, seed in plan:
                expected = baseline[(system, domain, seed)]
                try:
                    metrics = await loop.run_in_executor(
                        None, lambda: client.analyze(system, domain, seed=seed)
                    )
                except ServiceError as exc:
                    # A typed, explicit failure is within the contract.
                    report.typed_errors += 1
                    if not isinstance(exc.payload, dict) or "error" not in exc.payload:
                        report.violations.append(
                            f"({system}, {domain}, seed={seed}): error "
                            f"without a structured payload: {exc!r}"
                        )
                    continue
                except Exception as exc:  # noqa: BLE001 — anything raw is a violation
                    report.violations.append(
                        f"({system}, {domain}, seed={seed}): untyped "
                        f"{type(exc).__name__} escaped the client: {exc}"
                    )
                    continue
                for name, payload in metrics.items():
                    if payload.get("stale"):
                        report.stale += 1
                        continue
                    got = definition_digest(payload)
                    want = expected.get(name)
                    if got == want:
                        report.identical += 1
                    else:
                        report.violations.append(
                            f"({system}, {domain}, seed={seed}) {name}: "
                            f"definition digest {got} != baseline {want} "
                            f"and not marked stale"
                        )
            # Bounded recovery: every non-failed slot back to live.
            start = time.time()
            while time.time() - start < recovery_budget:
                status = supervisor.status()
                expected_live = sum(
                    1 for w in status["workers"] if w["state"] != "failed"
                )
                if status["live"] == supervisor_config.workers:
                    report.recovered = True
                    report.recovery_seconds = time.time() - start
                    break
                if expected_live == 0:
                    break
                await asyncio.sleep(0.2)
            report.supervisor_status = supervisor.status()
        finally:
            await front.stop()

    asyncio.run(drive())

    # Post-mortem: the shared store must fsck clean-or-repaired, and the
    # surviving entries must still be baseline-identical.
    store = MetricCatalogStore(catalog_root)
    report.fsck = store.fsck(repair=True)
    for row in store.list_entries():
        entry = store.get(
            row["arch"], row["metric"], row["config_digest"],
            version=row["latest_version"],
        )
        if entry is None:
            report.violations.append(
                f"catalog entry {row['metric']!r} v{row['latest_version']} "
                "listed but unloadable after fsck"
            )
            continue
        want = baseline_entries.get(
            (entry.arch, entry.domain, entry.metric, entry.seed)
        )
        if want is None:
            continue  # a seed the baseline did not cover
        got = definition_digest(entry.to_payload())
        if got != want:
            report.violations.append(
                f"stored entry {entry.metric!r} v{entry.version} digest "
                f"{got} != baseline {want}: corruption survived fsck"
            )
    return report
