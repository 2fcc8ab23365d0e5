"""The serving workloads, the serving-layer probes, and the tier they run on.

The tier is 2 supervised worker processes over a 2-shard catalog behind
a :class:`SupervisorServer` front, started from this (the benchmark's)
process.  Workers use the ``spawn`` start method, which re-imports the
entry script, so the tier must only ever be started from code that runs
under the entry script's ``__main__`` guard.

Load is closed-loop from 2 client threads of this process: catalog
callers (tools, CI jobs, preset consumers) wait for each reply.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import multiprocessing
import random
import shutil
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Sequence, Tuple

from perfbench.common import Gate, normalized, probe_host, result_digests

CLIENTS = 2
WORKERS = 2
SHARDS = 2

#: The (system, domain) whose entries serve-* reads and writes.
SYSTEM, DOMAIN = "aurora", "branch"

#: Set-ups per run; setup_s is their median.
SETUPS = 3

#: serve-write: every this-many-th request of a client analyses a
#: never-seen seed (fixed, not drawn, so each run writes the same share).
WRITE_EVERY = 10

#: Processes that recompute the written analyses after the load.
VERIFIERS = 2

#: Load runs in segments this long, with a host-speed probe between
#: them while the tier is idle.
SEGMENT_SECONDS = 2.0

#: Samples per serving-layer probe.
PROBE_SAMPLES = 100


class EventLoopThread:
    """An asyncio loop on a daemon thread, for the servers this process runs."""

    def __init__(self) -> None:
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self.loop.run_forever, name="perfbench-loop", daemon=True
        )
        self._thread.start()

    def run(self, coro, timeout: float = 120.0):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(timeout=10)
        self.loop.close()


class Tier:
    """The supervised, sharded serving tier over one catalog root."""

    def __init__(self, loop: EventLoopThread, root: Path):
        from repro.serve import ServiceSupervisor, SupervisorConfig, SupervisorServer

        self.loop = loop
        self.supervisor = ServiceSupervisor(
            str(root), config=SupervisorConfig(workers=WORKERS, shards=SHARDS)
        )
        self.front = SupervisorServer(self.supervisor)
        self.port = loop.run(self.front.start())

    def stop(self, gate: Gate) -> None:
        """Stop the tier; a restart during the run or a worker that
        outlives it fails the run."""
        workers = self.supervisor.status().get("workers", ())
        restarts = sum(int(w.get("restarts", 0)) for w in workers)
        self.loop.run(self.front.stop())
        if restarts:
            gate.fail(f"serving tier restarted workers {restarts} time(s)")
        alive = [p.name for p in multiprocessing.active_children()]
        if alive:
            gate.fail(f"worker process(es) outlived the tier: {', '.join(alive)}")


def served_config(domain: str):
    """The configuration the workers analyse with."""
    from repro.core.pipeline import DOMAIN_CONFIGS

    return replace(DOMAIN_CONFIGS[domain], use_measurement_cache=True)


def expected_digests(system: str, domain: str, seed: int) -> Dict[str, str]:
    """Ground truth for a served analysis: the same analysis run in
    this process, digested as the tier digests its answers."""
    from repro import AnalysisPipeline
    from repro.io.cache import MeasurementCache

    from perfbench.analysis import node_for

    node = node_for(system, seed)
    result = AnalysisPipeline.for_domain(
        domain, node, config=served_config(domain), cache=MeasurementCache()
    ).run()
    return result_digests(result, node, seed)


def payload_digests(metrics: Dict[str, dict]) -> Dict[str, str]:
    from repro.serve.chaos import definition_digest

    return {name: definition_digest(payload) for name, payload in metrics.items()}


def make_client(port: int):
    """A catalog caller's client: no retries, so a refusal is a failure."""
    from repro.serve import ResilientCatalogClient, RetryPolicy

    return ResilientCatalogClient(
        [("127.0.0.1", port)], timeout=60.0, deadline=60.0,
        retry=RetryPolicy(max_attempts=1),
    )


# -- closed-loop load --------------------------------------------------
class Client:
    """One closed-loop catalog caller: keyed reads of the ``read``
    (system, domain) entries and, with ``write_every``, analyses of
    never-seen seeds.  Keeps its request stream across load segments."""

    def __init__(self, index, port, read, seed, want, write_every, traced):
        self.index = index
        self.read = read
        self.seed = seed
        self.want = want
        self.metrics = sorted(want)
        self.write_every = write_every
        self.traced = traced
        self.rng = random.Random(f"perfbench:{seed}:client{index}")
        self.client = make_client(port)
        self.sent = index * WRITE_EVERY // CLIENTS  # the clients' writes interleave
        self.writes = 0
        self.read_times: List[float] = []
        self.write_times: List[float] = []
        #: fresh seed -> the digests the tier answered with.
        self.written: Dict[int, Dict[str, str]] = {}
        self.gate = Gate()
        self.counters: Dict[str, float] = {}

    def run(self, deadline: float) -> None:
        from contextlib import nullcontext

        from repro.obs import tracing

        with tracing(seed=self.seed) if self.traced else nullcontext() as tracer:
            while time.perf_counter() < deadline:
                self.sent += 1
                if self.write_every and self.sent % self.write_every == 0:
                    self._write()
                else:
                    self._read()
        if self.traced:
            for name, value in tracer.counters.items():
                self.counters[name] = self.counters.get(name, 0) + value

    def _write(self) -> None:
        fresh = self.seed + 1 + self.index + CLIENTS * self.writes
        self.writes += 1
        began = time.perf_counter()
        try:
            answer = self.client.analyze(SYSTEM, DOMAIN, seed=fresh)
        except Exception as exc:  # noqa: BLE001 — judged by the gate
            self.gate.refused(f"analyze seed {fresh}", exc)
            return
        self.write_times.append(time.perf_counter() - began)
        self.written[fresh] = payload_digests(answer)

    def _read(self) -> None:
        from repro.serve.chaos import definition_digest

        metric = self.metrics[self.rng.randrange(len(self.metrics))]
        began = time.perf_counter()
        try:
            payload = self.client.metric(*self.read, metric, seed=self.seed)
        except Exception as exc:  # noqa: BLE001 — judged by the gate
            self.gate.refused(f"read {metric}", exc)
            return
        self.read_times.append(time.perf_counter() - began)
        self.gate.check(
            f"read {metric} seed {self.seed}",
            {metric: definition_digest(payload)},
            {metric: self.want[metric]},
        )


@dataclass
class Load:
    """A finished load: the clients, and its latencies and duration
    speed-normalized segment by segment."""

    clients: List[Client]
    wall: float = 0.0
    scaled_wall: float = 0.0
    reads: List[float] = field(default_factory=list)
    writes: List[float] = field(default_factory=list)


def run_load(
    port: int,
    read: Tuple[str, str],
    seed: int,
    want: Dict[str, str],
    seconds: float,
    write_every: int,
    traced: bool,
) -> Load:
    """Closed-loop load from ``CLIENTS`` threads for ``seconds``, in
    segments of ``SEGMENT_SECONDS`` with a host-speed probe between
    segments, while the tier is idle."""
    load = Load(
        [Client(i, port, read, seed, want, write_every, traced) for i in range(CLIENTS)]
    )
    probe = probe_host()
    while load.wall < seconds:
        marks = [(len(c.read_times), len(c.write_times)) for c in load.clients]
        began = time.perf_counter()
        deadline = began + min(SEGMENT_SECONDS, seconds - load.wall)
        threads = [
            threading.Thread(target=c.run, args=(deadline,), name=f"perfbench-client{c.index}")
            for c in load.clients
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - began
        after = probe_host()
        speed, probe = (probe + after) / 2, after
        load.wall += elapsed
        load.scaled_wall += normalized(elapsed, speed)
        for c, (r, w) in zip(load.clients, marks):
            load.reads.extend(normalized(t, speed) for t in c.read_times[r:])
            load.writes.extend(normalized(t, speed) for t in c.write_times[w:])
    return load


def merge(gate: Gate, clients: Sequence[Client]) -> None:
    """Fold the client threads' gates into ``gate``."""
    for client in clients:
        gate.attempted += client.gate.attempted
        gate.failed += client.gate.failed
        gate.wrong.extend(client.gate.wrong)


def verify_writes(gate: Gate, clients: Sequence[Client]) -> None:
    """Judge every fresh-seed answer against an in-process run of the
    same analysis (spread over ``VERIFIERS`` processes; the tier is down
    by now, so they have the machine to themselves)."""
    from concurrent.futures import ProcessPoolExecutor

    written = sorted(item for c in clients for item in c.written.items())
    if not written:
        return
    with ProcessPoolExecutor(
        VERIFIERS, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        wants = pool.map(
            functools.partial(expected_digests, SYSTEM, DOMAIN),
            [fresh for fresh, _ in written],
            chunksize=4,
        )
        for (fresh, got), want in zip(written, wants):
            gate.check(f"analyze seed {fresh}", got, want)


def publish(root: Path, analyses, results, seed: int) -> None:
    """Publish in-process analysis results into a sharded catalog root,
    with the freshness evidence the tier checks before serving them."""
    from repro.incr.engine import domain_event_digests
    from repro.serve.catalog import entries_from_result
    from repro.serve.shard import open_catalog

    store = open_catalog(root, shards=SHARDS)
    for analysis, result in zip(analyses, results):
        events = analysis.node.events
        for entry in entries_from_result(
            result,
            arch=analysis.node.name,
            seed=seed,
            events_digest=events.content_digest(),
            event_digests=domain_event_digests(events, analysis.domain),
        ):
            store.put(entry)


# -- set-up ------------------------------------------------------------
def start_ready(
    loop: EventLoopThread, root: Path, seed: int, want: Dict[str, str], gate: Gate
) -> Tuple[Tier, float]:
    """Start a tier on a fresh root, publish the served entries through
    it, and wait for the front to answer ``/healthz``; returns the tier
    and the set-up time."""
    began = time.perf_counter()
    tier = Tier(loop, root)
    client = make_client(tier.port)
    answer = client.analyze(SYSTEM, DOMAIN, seed=seed)
    client.health()
    elapsed = time.perf_counter() - began
    gate.check(f"publish seed {seed}", payload_digests(answer), want)
    return tier, elapsed


def setup(
    loop: EventLoopThread, work: Path, seed: int, want: Dict[str, str], gate: Gate
) -> Tuple[Tier, Path, List[float]]:
    """``SETUPS`` set-ups, each speed-normalized by a probe taken just
    before it; all but the last tier are stopped again."""
    times = []
    for i in range(SETUPS):
        probe = probe_host()
        root = work / f"catalog{i}"
        tier, elapsed = start_ready(loop, root, seed, want, gate)
        times.append(normalized(elapsed, probe))
        if i < SETUPS - 1:
            tier.stop(gate)
            shutil.rmtree(root, ignore_errors=True)
    return tier, root, times


# -- serving-layer probes (traced runs) --------------------------------
def _median_us(call: Callable[[], object], samples: int = PROBE_SAMPLES) -> float:
    times = []
    for _ in range(samples):
        began = time.perf_counter()
        call()
        times.append(time.perf_counter() - began)
    return median(times) * 1e6


def layer_metrics(
    loop: EventLoopThread,
    tier: Tier,
    root: Path,
    scratch: Path,
    keys: Sequence[Tuple[str, str, int]],
    clients: Sequence[Client],
) -> Tuple[Dict[str, float], List[str]]:
    """The serving layers' metrics after a traced load: their timings
    and counters, and the names of counters this version lacks."""
    timings = _layer_timings(loop, tier, root, scratch, keys)
    counters, absent = _layer_counters(tier, clients)
    return {**timings, **counters}, absent


def _layer_timings(
    loop: EventLoopThread,
    tier: Tier,
    root: Path,
    scratch: Path,
    keys: Sequence[Tuple[str, str, int]],
) -> Dict[str, float]:
    """Time each serving layer once per sample, from outside: catalog
    ``latest`` and ``put``, encoding, the transport floor, one in-process
    server hop, a read via the front, and an analysis forwarded to a
    worker.  ``keys`` are the published ``(system, domain, seed)``."""
    from repro.core.pipeline import DOMAIN_CONFIGS
    from repro.incr.engine import domain_event_digests
    from repro.serve import HttpMetricServer, MetricService
    from repro.serve.catalog import analysis_config_digest
    from repro.serve.http import format_response
    from repro.serve.shard import open_catalog

    from perfbench.analysis import node_for

    store = open_catalog(root)
    lookups = []
    for system, domain, seed in keys:
        node = node_for(system, seed)
        evidence = dict(
            events_digest=node.events.content_digest(),
            event_digests=domain_event_digests(node.events, domain),
        )
        config_digest = analysis_config_digest(domain, seed, DOMAIN_CONFIGS[domain])
        for row in store.list_entries(arch=node.name):
            if row["config_digest"] == config_digest:
                lookups.append((node.name, row["metric"], config_digest, evidence))
    entries = [
        store.latest(arch, metric, digest, **evidence)
        for arch, metric, digest, evidence in lookups
    ]
    entries = [e for e in entries if e is not None]
    if not entries:
        raise RuntimeError("the served catalog holds none of the workload's entries")

    metrics: Dict[str, float] = {}
    cycle = itertools.count()

    def latest():
        arch, metric, digest, evidence = lookups[next(cycle) % len(lookups)]
        store.latest(arch, metric, digest, **evidence)

    metrics["catalog.latest_us"] = _median_us(latest)

    puts = []
    for i, entry in enumerate(entries):
        copy = open_catalog(scratch / f"put{i}", shards=SHARDS)
        began = time.perf_counter()
        copy.put(replace(entry, version=0))
        puts.append(time.perf_counter() - began)
    metrics["catalog.put_ms"] = median(puts) * 1e3
    shutil.rmtree(scratch, ignore_errors=True)

    entry = entries[0]
    metrics["serve.encode_us"] = _median_us(
        lambda: format_response(200, entry.to_payload())
    )

    system, domain, seed = keys[0]
    names = [e.metric for e in entries if e.domain == domain]
    single = HttpMetricServer(MetricService(open_catalog(root)), port=0)
    port = loop.run(single.start())
    try:
        from repro.serve.client import CatalogClient

        client = CatalogClient(port=port, timeout=30.0)
        metrics["serve.healthz_p50_ms"] = _median_us(client.health) / 1e3
        metrics["serve.single_read_p50_ms"] = _median_us(
            lambda: client.metric(system, domain, names[next(cycle) % len(names)], seed=seed)
        ) / 1e3
    finally:
        loop.run(single.stop())

    front = make_client(tier.port)
    metrics["serve.front_read_p50_ms"] = _median_us(
        lambda: front.metric(system, domain, names[next(cycle) % len(names)], seed=seed)
    ) / 1e3
    metrics["serve.forward_p50_ms"] = _median_us(
        lambda: front.analyze(system, domain, seed=seed), samples=PROBE_SAMPLES // 2
    ) / 1e3
    return metrics


def _layer_counters(
    tier: Tier, clients: Sequence[Client]
) -> Tuple[Dict[str, float], List[str]]:
    """Supervisor, service and client counters over the traced run.

    Read defensively: a field a later version drops is reported absent
    (the second return value), never fatal to the run.
    """
    from repro.serve.client import CatalogClient

    status = tier.supervisor.status()
    metrics: Dict[str, float] = {}
    absent: List[str] = []
    for key in ("front_serves", "dispatched", "redispatches"):
        if isinstance(status.get(key), (int, float)):
            metrics[f"supervisor.{key}"] = status[key]
        else:
            absent.append(f"supervisor.{key}")
    workers = status.get("workers") or []
    if workers and all(isinstance(w.get("restarts"), int) for w in workers):
        metrics["supervisor.restarts"] = sum(w["restarts"] for w in workers)
    else:
        absent.append("supervisor.restarts")
    if {"supervisor.front_serves", "supervisor.dispatched"} <= set(metrics):
        # The share of front requests answered without a worker hop.
        served = metrics["supervisor.front_serves"]
        metrics["supervisor.front_serve_ratio"] = served / (
            served + metrics["supervisor.dispatched"]
        )
    else:
        absent.append("supervisor.front_serve_ratio")

    stats: Dict[str, float] = {}
    for worker in workers:
        try:
            payload = CatalogClient(port=worker["port"], timeout=10.0).health()
        except Exception:  # noqa: BLE001 — a layer read-out never fails the run
            continue
        for key, value in (payload.get("stats") or {}).items():
            if isinstance(value, (int, float)):
                stats[key] = stats.get(key, 0) + value
    for key in ("coalesced", "catalog_hits", "pipeline_runs", "rejected", "errors"):
        if key in stats:
            metrics[f"serve.{key}"] = stats[key]
        else:
            absent.append(f"serve.{key}")
    if stats.get("requests") and "catalog_hits" in stats:
        metrics["serve.catalog_hit_ratio"] = stats["catalog_hits"] / stats["requests"]
    else:
        absent.append("serve.catalog_hit_ratio")

    for name in ("client.hedged_reads", "client.attempt_errors"):
        metrics[name] = sum(c.counters.get(name, 0) for c in clients)
    return metrics, absent
