"""Tests for the asyncio metric service: coalescing, batching,
backpressure, catalog serving, and fault transparency."""

import asyncio
import threading

import pytest

from repro import obs
from repro.core.pipeline import AnalysisPipeline
from repro.guard.validate import ValidationError
from repro.hardware import aurora_node
from repro.serve import (
    AnalysisRequest,
    MetricCatalogStore,
    MetricService,
    ServiceBusy,
    ServiceError,
)
from repro.serve.service import serving_config

METRIC = "Mispredicted Branches."


def run_async(coro):
    return asyncio.run(coro)


async def _with_service(body, **kwargs):
    """Start a service, run ``body(service)``, always stop cleanly."""
    service = MetricService(**kwargs)
    await service.start()
    try:
        return await body(service)
    finally:
        await service.stop()


class TestAnalysisRequest:
    def test_unknown_system_rejected(self):
        with pytest.raises(ValidationError):
            AnalysisRequest(system="cray", domain="branch")

    def test_incompatible_domain_rejected(self):
        with pytest.raises(ValidationError):
            AnalysisRequest(system="frontier", domain="branch")

    def test_bad_fault_spec_rejected(self):
        with pytest.raises(ValueError):
            AnalysisRequest(system="aurora", domain="branch", faults="bogus~")

    def test_key_distinguishes_faults(self):
        plain = AnalysisRequest(system="aurora", domain="branch")
        faulted = AnalysisRequest(
            system="aurora", domain="branch", faults="crash=1.0"
        )
        assert plain.key != faulted.key


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_run(self, tmp_path):
        """ISSUE acceptance: N identical concurrent requests -> exactly
        one pipeline execution, asserted via obs counters."""

        async def body(service):
            results = await asyncio.gather(
                *[service.analyze("aurora", "branch", seed=7) for _ in range(5)]
            )
            assert all(set(r) == set(results[0]) for r in results)
            return results

        with obs.tracing(seed=7) as tracer:
            run_async(
                _with_service(
                    body,
                    store=MetricCatalogStore(tmp_path / "catalog"),
                    cache_dir=str(tmp_path / "cache"),
                )
            )
        assert tracer.counters["serve.requests"] == 5
        assert tracer.counters["serve.pipeline_runs"] == 1
        assert tracer.counters["serve.coalesced"] == 4

    def test_distinct_seeds_do_not_coalesce(self, tmp_path):
        async def body(service):
            await asyncio.gather(
                service.analyze("aurora", "branch", seed=7),
                service.analyze("aurora", "branch", seed=8),
            )
            assert service.stats.snapshot()["pipeline_runs"] == 2
            assert service.stats.snapshot()["coalesced"] == 0

        run_async(_with_service(body, cache_dir=str(tmp_path / "cache")))


class TestCatalogServing:
    def test_second_request_is_catalog_hit_with_zero_runs(self, tmp_path):
        """ISSUE acceptance: a repeat request is served from the catalog
        with zero new pipeline runs."""

        async def body(service):
            first = await service.analyze("aurora", "branch", seed=7)
            assert {m.source for m in first.values()} == {"pipeline"}
            again = await service.analyze("aurora", "branch", seed=7)
            assert {m.source for m in again.values()} == {"catalog"}
            return first, again

        with obs.tracing(seed=7) as tracer:
            first, again = run_async(
                _with_service(
                    body,
                    store=MetricCatalogStore(tmp_path / "catalog"),
                    cache_dir=str(tmp_path / "cache"),
                )
            )
        assert tracer.counters["serve.pipeline_runs"] == 1
        assert tracer.counters["serve.catalog_hits"] == 1
        for name, served in again.items():
            assert served.entry == first[name].entry

    def test_served_definition_bit_identical_to_direct_run(self, tmp_path):
        """ISSUE acceptance: a served metric definition is bit-identical
        (coefficient bytes, trust level, guard stamps) to a direct
        pipeline run with the same seed and config."""

        async def body(service):
            served = await service.analyze("aurora", "branch", seed=7)
            config = serving_config("branch")
            return served, config

        served, config = run_async(
            _with_service(
                body,
                store=MetricCatalogStore(tmp_path / "catalog"),
                cache_dir=str(tmp_path / "cache"),
            )
        )
        node = aurora_node(seed=7)
        direct = AnalysisPipeline.for_domain("branch", node, config=config).run()
        assert set(served) == set(direct.metrics)
        for name, metric in direct.metrics.items():
            got = served[name].entry.definition()
            assert got.coefficients.tobytes() == metric.coefficients.tobytes()
            assert got.event_names == metric.event_names
            assert got.error == metric.error
            if metric.trust is not None:
                assert got.trust.level == metric.trust.level
            if metric.health is not None:
                assert (
                    tuple(got.health.guards_fired)
                    == tuple(metric.health.guards_fired)
                )

    def test_unknown_metric_is_404(self, tmp_path):
        async def body(service):
            with pytest.raises(ServiceError) as err:
                await service.get_metric("aurora", "branch", "No Such Metric", seed=7)
            assert err.value.status == 404
            assert METRIC in err.value.payload["available"]

        run_async(_with_service(body, cache_dir=str(tmp_path / "cache")))


class TestBackpressure:
    def test_full_queue_rejects_429(self, tmp_path):
        """A full dispatch queue rejects immediately with ServiceBusy —
        never invisible queueing.  A blocking runner pins the single
        worker; queue_limit=1 leaves room for exactly one more job."""
        release = threading.Event()
        started = threading.Event()

        def runner(tasks):
            started.set()
            assert release.wait(timeout=30), "test runner was never released"
            return MetricService(cache_dir=str(tmp_path / "cache"))._run_batch(tasks)

        async def body(service):
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(service.analyze("aurora", "branch", seed=7))
            await loop.run_in_executor(None, started.wait)  # worker is pinned
            second = asyncio.ensure_future(service.analyze("aurora", "branch", seed=8))
            await asyncio.sleep(0)  # let the second request enqueue
            with pytest.raises(ServiceBusy) as err:
                await service.analyze("aurora", "branch", seed=9)
            assert err.value.status == 429
            assert service.stats.snapshot()["rejected"] == 1
            release.set()
            await asyncio.gather(first, second)

        with obs.tracing(seed=7) as tracer:
            run_async(
                _with_service(
                    body,
                    workers=1,
                    queue_limit=1,
                    batch_size=1,
                    runner=runner,
                    cache_dir=str(tmp_path / "cache"),
                )
            )
        assert tracer.counters["serve.rejected"] == 1
        assert tracer.counters["serve.pipeline_runs"] == 2

    def test_coalesced_rider_is_not_rejected(self, tmp_path):
        """Riders of an in-flight key never consume queue capacity."""
        release = threading.Event()
        started = threading.Event()

        def runner(tasks):
            started.set()
            assert release.wait(timeout=30)
            return MetricService(cache_dir=str(tmp_path / "cache"))._run_batch(tasks)

        async def body(service):
            loop = asyncio.get_running_loop()
            first = asyncio.ensure_future(service.analyze("aurora", "branch", seed=7))
            await loop.run_in_executor(None, started.wait)
            blocker = asyncio.ensure_future(
                service.analyze("aurora", "branch", seed=8)
            )
            await asyncio.sleep(0)
            # Queue is full, but an identical request coalesces fine.
            rider = asyncio.ensure_future(service.analyze("aurora", "branch", seed=7))
            await asyncio.sleep(0)
            assert service.stats.snapshot()["coalesced"] == 1
            assert service.stats.snapshot()["rejected"] == 0
            release.set()
            await asyncio.gather(first, blocker, rider)

        run_async(
            _with_service(
                body,
                workers=1,
                queue_limit=1,
                batch_size=1,
                runner=runner,
                cache_dir=str(tmp_path / "cache"),
            )
        )


class TestFaultTransparency:
    def test_injected_crash_surfaces_as_structured_error(self, tmp_path):
        """ISSUE acceptance: a fault-injected worker crash produces a
        structured error payload, never a hang."""

        async def body(service):
            with pytest.raises(ServiceError) as err:
                await service.analyze(
                    "aurora", "branch", seed=7, faults="crash=1.0"
                )
            payload = err.value.payload
            assert err.value.status == 500
            assert payload["error_type"] == "InjectedWorkerCrash"
            assert payload["attempts"] == 1
            assert payload["request"]["faults"] == "crash=1.0"

        with obs.tracing(seed=7) as tracer:
            run_async(
                _with_service(
                    body,
                    store=MetricCatalogStore(tmp_path / "catalog"),
                    retries=0,
                    cache_dir=str(tmp_path / "cache"),
                )
            )
        assert tracer.counters["serve.errors"] == 1

    def test_faulted_requests_never_touch_the_catalog(self, tmp_path):
        """Diagnostic probes must not poison the store or read from it."""
        store = MetricCatalogStore(tmp_path / "catalog")

        async def body(service):
            # A clean run populates the catalog; a faulted re-run of the
            # same key must not be served from it (and must not store).
            await service.analyze("aurora", "branch", seed=7)
            with pytest.raises(ServiceError):
                await service.analyze(
                    "aurora", "branch", seed=7, faults="crash=1.0"
                )
            assert service.stats.snapshot()["catalog_hits"] == 0

        run_async(
            _with_service(
                body, store=store, retries=0, cache_dir=str(tmp_path / "cache")
            )
        )
        assert len(store.log_records()) > 0  # clean run stored
        versions = {r["version"] for r in store.log_records()}
        assert versions == {1}  # the faulted run appended nothing

    def test_retry_recovers_injected_crash(self, tmp_path):
        """With retries enabled the engine's retry machinery (reused
        verbatim) absorbs the crash and the analysis succeeds."""

        async def body(service):
            served = await service.analyze(
                "aurora", "branch", seed=7, faults="crash=1.0"
            )
            assert {m.source for m in served.values()} == {"pipeline"}

        run_async(
            _with_service(body, retries=1, cache_dir=str(tmp_path / "cache"))
        )


class TestLifecycle:
    def test_stop_resolves_pending_with_503(self, tmp_path):
        release = threading.Event()
        started = threading.Event()

        def runner(tasks):
            started.set()
            release.wait(timeout=30)
            raise RuntimeError("runner aborted by shutdown test")

        async def body():
            service = MetricService(
                workers=1, queue_limit=4, batch_size=1, runner=runner
            )
            await service.start()
            loop = asyncio.get_running_loop()
            pending = asyncio.ensure_future(service.analyze("aurora", "branch"))
            await loop.run_in_executor(None, started.wait)
            queued = asyncio.ensure_future(
                service.analyze("aurora", "branch", seed=99)
            )
            await asyncio.sleep(0)
            await service.stop(drain_timeout=0.2)
            release.set()
            for fut in (pending, queued):
                with pytest.raises(ServiceError) as err:
                    await fut
                assert err.value.status in (500, 503)
            assert not service.ready

        run_async(body())

    def test_health_payload_shape(self):
        async def body(service):
            health = service.health()
            assert health["ready"] is True
            assert health["queue_limit"] == service.queue_limit
            assert set(health["stats"]) == {
                "requests",
                "coalesced",
                "catalog_hits",
                "pipeline_runs",
                "batches",
                "rejected",
                "errors",
                "stale_served",
                "refreshes",
                "catalog_store_errors",
            }
            assert isinstance(health["counters"], dict)

        run_async(_with_service(body))

    def test_requests_before_start_are_503(self):
        async def body():
            service = MetricService()
            with pytest.raises(ServiceError) as err:
                await service.analyze("aurora", "branch")
            assert err.value.status == 503

        run_async(body())


class TestRefreshHook:
    def test_refresh_builds_then_serves_from_catalog(self, tmp_path):
        """A service-side refresh populates the catalog; subsequent
        requests are pure catalog hits with zero pipeline runs."""

        async def body(service):
            report = await service.refresh("aurora", seed=7, domains=["branch"])
            assert {d for d, _ in report.refreshed} == {"branch"}
            assert service.health()["stats"]["refreshes"] == 1
            served = await service.analyze("aurora", "branch", seed=7)
            assert {m.source for m in served.values()} == {"catalog"}
            again = await service.refresh("aurora", seed=7, domains=["branch"])
            assert not again.refreshed
            return report, served

        with obs.tracing(seed=7) as tracer:
            report, served = run_async(
                _with_service(
                    body, store=MetricCatalogStore(tmp_path / "catalog")
                )
            )
        assert tracer.counters["serve.refreshes"] == 2
        assert "serve.pipeline_runs" not in tracer.counters
        # The refresh-built entries are the ones served.
        for (domain, metric), entry in report.entries.items():
            assert served[metric].entry == entry

    def test_refresh_with_edited_registry_invalidates_service_reads(
        self, tmp_path
    ):
        """After refreshing against an edited registry, a stock-registry
        request correctly misses the catalog (the stored dependency
        digests no longer match) and re-runs the pipeline."""
        from repro.incr import RegistryEdit, apply_edits

        async def body(service):
            await service.refresh("aurora", seed=7, domains=["branch"])
            node = aurora_node(seed=7)
            target = next(
                e.full_name for e in node.events if e.domain == "branch"
            )
            edited = apply_edits(
                node.events,
                [
                    RegistryEdit(
                        action="scale-response", event=target, factor=1.5
                    )
                ],
            )
            report = await service.refresh(
                "aurora", seed=7, domains=["branch"], registry=edited
            )
            assert report.stale_domains == ["branch"]
            served = await service.analyze("aurora", "branch", seed=7)
            assert {m.source for m in served.values()} == {"pipeline"}

        run_async(
            _with_service(body, store=MetricCatalogStore(tmp_path / "catalog"))
        )

    def test_refresh_without_store_is_400(self):
        async def body(service):
            with pytest.raises(ServiceError) as err:
                await service.refresh("aurora")
            assert err.value.status == 400

        run_async(_with_service(body))

    def test_refresh_unknown_system_is_404(self, tmp_path):
        async def body(service):
            with pytest.raises(ServiceError) as err:
                await service.refresh("cray")
            assert err.value.status == 404

        run_async(
            _with_service(body, store=MetricCatalogStore(tmp_path / "catalog"))
        )

    def test_refresh_incompatible_domain_is_400(self, tmp_path):
        async def body(service):
            with pytest.raises(ServiceError) as err:
                await service.refresh("frontier", domains=["branch"])
            assert err.value.status == 400

        run_async(
            _with_service(body, store=MetricCatalogStore(tmp_path / "catalog"))
        )

    def test_refresh_before_start_is_503(self, tmp_path):
        async def body():
            service = MetricService(MetricCatalogStore(tmp_path / "catalog"))
            with pytest.raises(ServiceError) as err:
                await service.refresh("aurora")
            assert err.value.status == 503

        run_async(body())


class TestStopRace:
    """S3: stop() racing in-flight batches must drain cleanly — pending
    requests resolve 503, worker threads join, no staging litter."""

    def test_stop_joins_worker_threads(self, tmp_path):
        async def body():
            service = MetricService(cache_dir=str(tmp_path / "cache"))
            await service.start()
            await service.analyze("aurora", "branch")
            await service.stop(drain_timeout=10.0)
            assert service.drained_clean is True
            lingering = [
                t.name
                for t in threading.enumerate()
                if t.name.startswith(service._thread_prefix)
            ]
            assert lingering == []

        run_async(body())

    def test_stop_with_hung_runner_reports_unclean_drain(self):
        release = threading.Event()
        started = threading.Event()

        def runner(tasks):
            started.set()
            release.wait(timeout=30)
            return []

        async def body():
            service = MetricService(
                workers=1, queue_limit=2, batch_size=1, runner=runner
            )
            await service.start()
            loop = asyncio.get_running_loop()
            pending = asyncio.ensure_future(service.analyze("aurora", "branch"))
            await loop.run_in_executor(None, started.wait)
            await service.stop(drain_timeout=0.2)
            # The runner thread is still wedged: the drain must say so
            # instead of pretending the shutdown was clean.
            assert service.drained_clean is False
            release.set()
            with pytest.raises(ServiceError):
                await pending

        run_async(body())

    def test_stop_midflight_leaves_no_staging_litter(self, tmp_path):
        async def body():
            store = MetricCatalogStore(tmp_path / "catalog")
            service = MetricService(store, cache_dir=str(tmp_path / "cache"))
            await service.start()
            pending = asyncio.ensure_future(service.analyze("aurora", "branch"))
            await asyncio.sleep(0.05)  # let the batch reach the pool
            await service.stop(drain_timeout=10.0)
            try:
                await pending
            except ServiceError:
                pass  # resolved 503 mid-flight: acceptable
            staged = list((tmp_path / "catalog").rglob("*.staged"))
            assert staged == []
            # Whatever was published is readable and fscks clean.
            assert MetricCatalogStore(tmp_path / "catalog").fsck().clean

        run_async(body())


class TestStaleDegradation:
    """Graceful degradation: a saturated service serves the newest
    catalog entries stamped stale instead of rejecting — opt-in via
    stale_max_age, never for faulted requests."""

    async def _saturated_service(self, store, release, started, **kwargs):
        def runner(tasks):
            started.set()
            release.wait(timeout=30)
            return []

        service = MetricService(
            store,
            workers=1,
            queue_limit=1,
            batch_size=1,
            runner=runner,
            **kwargs,
        )
        # Simulate invalidated fresh reads (a registry edit, a dependency
        # digest mismatch): the strict catalog path misses, so requests
        # hit the queue — while the freshness-waiving stale path can
        # still load the stored entries.
        service._from_catalog = lambda request: None
        await service.start()
        loop = asyncio.get_running_loop()
        # One request wedged in the worker, one filling the queue.
        asyncio.ensure_future(service.analyze("aurora", "branch", seed=99))
        await loop.run_in_executor(None, started.wait)
        asyncio.ensure_future(service.analyze("aurora", "branch", seed=98))
        await asyncio.sleep(0)
        return service

    def _populate(self, tmp_path):
        store = MetricCatalogStore(tmp_path / "catalog")

        async def fill():
            service = MetricService(store, cache_dir=str(tmp_path / "cache"))
            await service.start()
            await service.analyze("aurora", "branch")
            await service.stop(drain_timeout=5.0)

        run_async(fill())
        return store

    def test_saturated_service_serves_stale(self, tmp_path):
        store = self._populate(tmp_path)
        release, started = threading.Event(), threading.Event()

        async def body():
            service = await self._saturated_service(
                store, release, started, stale_max_age=3600.0
            )
            with obs.tracing(seed=0) as trace:
                served = await service.analyze("aurora", "branch")
            release.set()
            assert served
            for metric in served.values():
                assert metric.stale is True
                assert metric.source == "catalog"
                payload = metric.to_payload()
                assert payload["stale"] is True
                assert payload["stale_age_seconds"] >= 0.0
            assert service.stats.snapshot()["stale_served"] == 1
            assert trace.counters["serve.stale_served"] == 1
            await service.stop(drain_timeout=0.5)

        run_async(body())

    def test_stale_serving_is_opt_in(self, tmp_path):
        store = self._populate(tmp_path)
        release, started = threading.Event(), threading.Event()

        async def body():
            service = await self._saturated_service(store, release, started)
            with pytest.raises(ServiceBusy):
                await service.analyze("aurora", "branch")
            release.set()
            assert service.stats.snapshot()["stale_served"] == 0
            await service.stop(drain_timeout=0.5)

        run_async(body())

    def test_faulted_requests_never_get_stale_answers(self, tmp_path):
        store = self._populate(tmp_path)
        release, started = threading.Event(), threading.Event()

        async def body():
            service = await self._saturated_service(
                store, release, started, stale_max_age=3600.0
            )
            with pytest.raises(ServiceBusy):
                await service.analyze("aurora", "branch", faults="crash=1.0")
            release.set()
            await service.stop(drain_timeout=0.5)

        run_async(body())

    def test_empty_catalog_still_rejects(self, tmp_path):
        store = MetricCatalogStore(tmp_path / "empty")
        release, started = threading.Event(), threading.Event()

        async def body():
            service = await self._saturated_service(
                store, release, started, stale_max_age=3600.0
            )
            with pytest.raises(ServiceBusy):
                await service.analyze("aurora", "branch")
            release.set()
            await service.stop(drain_timeout=0.5)

        run_async(body())
