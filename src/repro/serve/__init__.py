"""repro.serve — versioned metric catalog + fault-tolerant metric service.

Layers, bottom up:

* :mod:`repro.serve.catalog` — a content-addressed, versioned on-disk
  store of served :class:`~repro.core.metrics.MetricDefinition` records
  (coefficients bit-exact, trust certification, guard stamps, lineage),
  published crash-consistently (fsync + staged rename) and repairable
  after a crash via :meth:`MetricCatalogStore.fsck`.
* :mod:`repro.serve.service` / :mod:`repro.serve.http` — an asyncio
  service over the analysis pipeline with request coalescing, batched
  dispatch, bounded-queue backpressure, structured fault errors, and
  optional stale-serving degradation, fronted by a small stdlib HTTP
  server.
* :mod:`repro.serve.supervisor` — a supervised multi-worker front over
  the same catalog root: heartbeat crash/hang detection, backoff
  restarts under an intensity cap, re-dispatch of in-flight requests,
  stale fallback when the whole pool is down.
* :mod:`repro.serve.client` / :mod:`repro.serve.resilience` — the
  blocking :class:`CatalogClient` plus the retrying, deadline-bounded,
  breaker-guarded, hedging :class:`ResilientCatalogClient`.
* :mod:`repro.serve.shard` — a consistent-hash ring
  (:class:`ShardRing`) partitioning the catalog by (architecture,
  metric) across N shard directories, fronted by
  :class:`ShardedCatalogStore`: routed reads/writes, deterministic
  fan-out for listings/fsck, and a hot-entry read-replica cache
  invalidated on the events-registry digest.
* :mod:`repro.serve.chaos` — the closed-loop chaos drill that proves
  the tier's invariant: every response under injected faults is
  bit-identical to the fault-free answer, explicitly stale, or a typed
  error.
* :mod:`repro.serve.load` — the closed-loop load harness: open- and
  closed-loop workload models, deterministic per-client streams,
  latency percentiles, saturation sweeps over offered rps, and the
  same bit-identical / typed-rejection / explicit-stale invariant
  checked on every response.

See ``docs/serving.md`` (failure modes & recovery) and
``docs/robustness.md`` (the fault model).
"""

from repro.serve.catalog import (
    CatalogDiff,
    CatalogEntry,
    FsckReport,
    LogCompaction,
    MetricCatalogStore,
    analysis_config_digest,
    diff_entries,
    entries_from_result,
    metric_slug,
)
from repro.serve.chaos import ChaosReport, definition_digest, run_chaos_drill
from repro.serve.client import CatalogClient
from repro.serve.http import HttpMetricServer, run_server
from repro.serve.load import (
    LoadReport,
    LoadStep,
    LoadStepReport,
    RequestSpec,
    Workload,
    latency_percentile,
    run_load_drill,
)
from repro.serve.resilience import (
    BreakerOpen,
    CircuitBreaker,
    DeadlineExceeded,
    ResilientCatalogClient,
    RetryPolicy,
    idempotency_key,
)
from repro.serve.service import (
    AnalysisRequest,
    MetricService,
    ServedMetric,
    ServiceBusy,
    ServiceError,
    TransportError,
)
from repro.serve.shard import (
    ShardRing,
    ShardUnavailable,
    ShardedCatalogStore,
    open_catalog,
    shard_names,
)
from repro.serve.supervisor import (
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorServer,
)

__all__ = [
    "AnalysisRequest",
    "BreakerOpen",
    "CatalogClient",
    "CatalogDiff",
    "CatalogEntry",
    "ChaosReport",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FsckReport",
    "HttpMetricServer",
    "LoadReport",
    "LoadStep",
    "LoadStepReport",
    "LogCompaction",
    "MetricCatalogStore",
    "MetricService",
    "RequestSpec",
    "ResilientCatalogClient",
    "RetryPolicy",
    "ServedMetric",
    "ServiceBusy",
    "ServiceError",
    "ServiceSupervisor",
    "ShardRing",
    "ShardUnavailable",
    "ShardedCatalogStore",
    "SupervisorConfig",
    "SupervisorServer",
    "TransportError",
    "Workload",
    "analysis_config_digest",
    "definition_digest",
    "diff_entries",
    "entries_from_result",
    "idempotency_key",
    "latency_percentile",
    "metric_slug",
    "open_catalog",
    "run_chaos_drill",
    "run_load_drill",
    "run_server",
    "shard_names",
]
