"""Tests for the supervised worker pool (real processes, real sockets).

These spin actual spawn-context worker processes, so they are the
slowest tests in the suite; each test covers several behaviours to keep
the process-spawn count down.
"""

import asyncio
import time

import pytest

from repro.core.pipeline import AnalysisPipeline
from repro.hardware import aurora_node
from repro.io.cache import event_set_digest
from repro.serve import (
    MetricCatalogStore,
    ResilientCatalogClient,
    RetryPolicy,
    ServiceSupervisor,
    SupervisorConfig,
    SupervisorServer,
)
from repro.serve import supervisor as supervisor_module
from repro.serve.catalog import entries_from_result
from repro.serve.http import parse_metric_target

METRIC = "Mispredicted Branches."


def _await_live(supervisor, want, budget=30.0):
    deadline = time.time() + budget
    while time.time() < deadline:
        if supervisor.status()["live"] >= want:
            return True
        time.sleep(0.2)
    return False


class TestSupervisorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(workers=0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_intensity=0)


class TestSupervisedServing:
    def test_pool_serves_survives_kill_and_degrades(self, tmp_path, monkeypatch):
        """One pool exercise: serve -> SIGKILL one worker (the survivor
        serves, worker restarts within budget) -> kill every
        worker (a fully-fresh published key is still served fresh from
        the dispatcher's own catalog view; once freshness evidence
        fails, the answer degrades to an explicitly stale one)."""
        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(
                workers=2,
                heartbeat_timeout=2.0,
                backoff_base=0.1,
                backoff_max=0.5,
                stale_max_age=3600.0,
            ),
        )
        front = SupervisorServer(supervisor)

        async def body():
            port = await front.start()
            client = ResilientCatalogClient(
                [("127.0.0.1", port)],
                retry=RetryPolicy(max_attempts=6, backoff_base=0.05),
                breaker_factory=None,
            )
            loop = asyncio.get_running_loop()

            def metric():
                return client.metric("aurora", "branch", METRIC)

            def status():
                return client._call(
                    lambda c: c._request("GET", "/supervisor/status"), "status"
                )

            # 1. Healthy pool serves and publishes to the shared catalog.
            first = await loop.run_in_executor(None, metric)
            assert first["metric"] == METRIC
            assert first["stale"] is False
            payload = await loop.run_in_executor(None, status)
            assert payload["live"] == 2
            assert {w["state"] for w in payload["workers"]} == {"live"}

            # 2. SIGKILL one worker: the request is served by the
            # survivor, and the slot restarts within budget.  kill() only
            # sends the signal; wait for the death to land so the live
            # poll below cannot count the dying worker.
            supervisor.slots[0].process.kill()
            supervisor.slots[0].process.join(5)
            second = await loop.run_in_executor(None, metric)
            assert second["stale"] is False
            assert second["metric"] == METRIC
            recovered = await loop.run_in_executor(
                None, _await_live, supervisor, 2
            )
            assert recovered, "killed worker did not restart within budget"
            assert supervisor.status()["workers"][0]["restarts"] >= 1
            assert supervisor.status()["restarts"] >= 1

            # 3. Total outage: the key the pool published still carries
            # full freshness evidence, so the dispatcher's front-replica
            # read answers it *fresh* — no worker needed at all.
            for slot in supervisor.slots:
                slot.process.kill()
            for slot in supervisor.slots:
                slot.process.join(5)
            third = await loop.run_in_executor(None, metric)
            assert third["stale"] is False
            assert third["source"] == "catalog"
            assert third["coefficients_hex"] == first["coefficients_hex"]
            assert supervisor.status()["front_serves"] >= 1

            # 4. Outage plus drifted registry evidence: the front read
            # refuses (evidence mismatch), no worker is live to
            # recompute, so the answer degrades to an *explicitly*
            # stale catalog read rather than an error or a lie.
            real_key = supervisor_module.catalog_key

            def drifted_key(system, domain, seed):
                arch, config_digest, _, _ = real_key(system, domain, seed)
                return arch, config_digest, "0" * 16, {"drifted-event": "0" * 16}

            monkeypatch.setattr(supervisor_module, "catalog_key", drifted_key)
            fourth = await loop.run_in_executor(None, metric)
            assert fourth["stale"] is True
            assert fourth["source"] == "catalog"
            assert fourth["stale_age_seconds"] >= 0.0
            assert fourth["degraded"] == "no live workers"
            # The definition itself is the one the pool published.
            assert fourth["coefficients_hex"] == first["coefficients_hex"]

            await front.stop()

        asyncio.run(body())

    def test_restart_intensity_cap_marks_slot_failed(self, tmp_path):
        supervisor = ServiceSupervisor(
            None,
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(
                workers=1,
                heartbeat_timeout=2.0,
                backoff_base=0.05,
                backoff_max=0.1,
                restart_intensity=2,
                restart_window=60.0,
                worker_start_timeout=30.0,
            ),
        )
        supervisor._exit_after = 0.05  # test seam: workers self-destruct
        supervisor.start()
        try:
            deadline = time.time() + 60.0
            while time.time() < deadline:
                if supervisor.slots[0].state == "failed":
                    break
                time.sleep(0.2)
            assert supervisor.slots[0].state == "failed"
            # 2 allowed restarts + the tripping one.
            assert len(supervisor.slots[0].restarts) == 3
        finally:
            supervisor.stop()

    def test_startup_fsck_quarantines_torn_publication(self, tmp_path):
        node = aurora_node(seed=7)
        result = AnalysisPipeline.for_domain("branch", node).run()
        entries = entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        )
        torn_store = MetricCatalogStore(
            tmp_path / "catalog", failpoint=lambda s: "torn"
        )
        torn_store.put(entries[0])

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            cache_dir=str(tmp_path / "cache"),
            config=SupervisorConfig(workers=1),
        )
        supervisor.start()
        try:
            assert supervisor.fsck_report is not None
            assert len(supervisor.fsck_report.quarantined) == 1
            # And the repaired store now fscks clean.
            assert MetricCatalogStore(tmp_path / "catalog").fsck().clean
        finally:
            supervisor.stop()

    def test_stale_answer_matches_request_identity(self, tmp_path):
        """The degraded-mode catalog read answers for exactly the
        requested (system, domain, seed) — never an entry computed for
        another system or seed, and never for faulted requests (an
        unfaulted entry would be a wrong answer merely stamped stale)."""
        from dataclasses import replace
        from urllib.parse import quote

        from repro.core.pipeline import DOMAIN_CONFIGS

        node = aurora_node(seed=7)
        config = replace(DOMAIN_CONFIGS["branch"], use_measurement_cache=True)
        result = AnalysisPipeline.for_domain("branch", node, config=config).run()
        store = MetricCatalogStore(tmp_path / "catalog")
        for entry in entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        ):
            store.put(entry)

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            config=SupervisorConfig(workers=1, stale_max_age=3600.0),
        )

        def stale(system, query):
            target = f"/v1/metric/{system}/branch/{quote(METRIC)}?{query}"
            return supervisor._stale_answer(parse_metric_target(target))

        answer = stale("aurora", "seed=7")
        assert answer is not None
        assert answer["stale"] is True
        assert answer["metric"] == METRIC

        # A different seed is a different analysis.
        assert stale("aurora", "seed=2024") is None
        # Another system's entries never answer for this one.
        assert stale("frontier", "seed=7") is None
        # Unknown systems degrade to the 503 path, not a crash.
        assert stale("nope", "seed=7") is None
        # Faulted requests must never get an unfaulted stale answer.
        assert stale("aurora", "seed=7&faults=kill%3D0.5") is None

    def test_fresh_answer_serves_replica_reads_without_a_worker(
        self, tmp_path
    ):
        """The front-replica read: a keyed GET whose stored entry
        carries full freshness evidence is answered by the dispatcher
        itself — same check a worker's catalog hit makes — while any
        doubt (drifted registry evidence, other seed, faults, POSTs)
        falls through to the pool."""
        from dataclasses import replace
        from urllib.parse import quote

        from repro import obs
        from repro.core.pipeline import DOMAIN_CONFIGS

        node = aurora_node(seed=7)
        config = replace(DOMAIN_CONFIGS["branch"], use_measurement_cache=True)
        result = AnalysisPipeline.for_domain("branch", node, config=config).run()
        entries = entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        )

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            config=SupervisorConfig(workers=1, shards=2, stale_max_age=3600.0),
        )
        assert supervisor._store is not None
        # One entry published against a drifted (wrong) event registry;
        # the rest carry the genuine evidence.
        tampered = entries[1]
        supervisor._store.put(replace(tampered, events_digest="0" * 16))
        for entry in entries:
            if entry.metric != tampered.metric:
                supervisor._store.put(entry)

        def fresh(system, metric, query):
            target = f"/v1/metric/{system}/branch/{quote(metric)}?{query}"
            return supervisor._fresh_answer(parse_metric_target(target))

        with obs.tracing(seed=7) as tracer:
            answer = fresh("aurora", METRIC, "seed=7")
            assert answer is not None
            assert answer["metric"] == METRIC
            assert answer["stale"] is False
            assert answer["source"] == "catalog"
            assert tracer.counters["supervisor.front_serves"] == 1
        assert supervisor.status()["front_serves"] == 1

        # Drifted registry evidence is a miss, not a wrong answer.
        assert fresh("aurora", tampered.metric, "seed=7") is None
        # Another seed is another analysis; faulted requests and POSTs
        # never take the fast path (a POST is never parsed as a keyed
        # read, so with no live worker it gets the 503).
        assert fresh("aurora", METRIC, "seed=2024") is None
        assert fresh("aurora", METRIC, "seed=7&faults=kill%3D0.5") is None
        target = f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=7"
        status, _ = asyncio.run(supervisor.dispatch("POST", target, b""))
        assert status == 503
        assert supervisor.status()["front_serves"] == 1
        # Unknown systems degrade to dispatch, not a crash.
        assert fresh("nope", METRIC, "seed=7") is None

    def test_existing_shard_manifest_is_authoritative(self, tmp_path):
        """A supervisor configured without shards over a root that
        already has ``shards.json`` opens it sharded (as ``open_catalog``
        does for single-process serving), routes by that ring, reports
        its shard count, and serves the keys published into it."""
        from urllib.parse import quote

        from repro.serve import ShardedCatalogStore, open_catalog
        from repro.serve.service import serving_config

        node = aurora_node(seed=7)
        result = AnalysisPipeline.for_domain(
            "branch", node, config=serving_config("branch")
        ).run()
        store = open_catalog(tmp_path / "catalog", shards=2)
        for entry in entries_from_result(
            result,
            arch=node.name,
            seed=7,
            events_digest=event_set_digest(node.events),
        ):
            store.put(entry)

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"), config=SupervisorConfig(workers=1)
        )
        assert isinstance(supervisor._store, ShardedCatalogStore)
        assert supervisor.status()["config"]["shards"] == 2
        target = f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=7"
        answer = supervisor._fresh_answer(parse_metric_target(target))
        assert answer is not None
        assert answer["metric"] == METRIC
        assert answer["stale"] is False

    def test_status_is_json_serializable(self, tmp_path):
        import json

        supervisor = ServiceSupervisor(
            str(tmp_path / "catalog"),
            config=SupervisorConfig(workers=1),
        )
        # Status must serialize even before start (no processes yet).
        json.dumps(supervisor.status())
