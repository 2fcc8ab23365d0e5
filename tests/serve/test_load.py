"""Tests for the closed-loop load harness.

The cheap tests pin the deterministic machinery — workload streams,
percentile maths, response classification — without any server; the
drill tests actually serve: one single-process tier (in-process
asyncio) and one sharded multi-process tier (real spawn workers, the
slow path), both judged against the invariant.
"""

import subprocess
import sys
import time

import pytest

from repro import obs
from repro.serve import LoadStep, Workload, latency_percentile, run_load_drill
from repro.serve.chaos import definition_digest
from repro.serve.load import LoadStepReport, RequestSpec, _classify
from repro.serve.service import ServiceBusy, ServiceError, TransportError


class TestWorkload:
    def test_streams_are_deterministic(self):
        workload = Workload(clients=3, requests_per_client=5, hot_fraction=0.5)
        names = {("aurora", "branch"): ["Mispredicted Branches."]}
        for client in range(3):
            assert workload.client_stream(client, names) == workload.client_stream(
                client, names
            )
        # Distinct clients draw distinct streams (same rendezvous head).
        streams = [workload.client_stream(c, names) for c in range(3)]
        assert len({tuple(s) for s in streams}) > 1
        heads = {s[0] for s in streams}
        assert heads == {RequestSpec("analyze", "aurora", "branch", seed=2024)}

    def test_universe_covers_every_possible_request(self):
        workload = Workload(
            clients=4, requests_per_client=8, seed_pool=3, hot_fraction=0.4
        )
        universe = set(workload.universe())
        names = {("aurora", "branch"): ["Mispredicted Branches."]}
        for client in range(workload.clients):
            for spec in workload.client_stream(client, names):
                assert (spec.system, spec.domain, spec.seed) in universe

    def test_unique_seeds_never_repeat_an_analysis(self):
        workload = Workload(clients=3, requests_per_client=4, unique_seeds=True)
        seeds = [
            spec.seed
            for client in range(3)
            for spec in workload.client_stream(client, {})
        ]
        assert len(seeds) == len(set(seeds)) == 12
        assert len(workload.universe()) == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            Workload(pairs=())
        with pytest.raises(ValueError):
            Workload(clients=0)
        with pytest.raises(ValueError):
            Workload(hot_fraction=1.5)
        with pytest.raises(ValueError):
            Workload(seed_pool=0)


class TestLoadStep:
    def test_open_loop_needs_a_rate(self):
        with pytest.raises(ValueError):
            LoadStep("open")
        with pytest.raises(ValueError):
            LoadStep("open", offered_rps=0)
        with pytest.raises(ValueError):
            LoadStep("sideways")
        assert LoadStep("open", offered_rps=4.0).label() == "open@4rps"
        assert LoadStep("closed").label() == "closed"


class TestLatencyPercentile:
    def test_nearest_rank(self):
        samples = [i / 1000 for i in range(1, 101)]
        assert latency_percentile(samples, 50) == pytest.approx(0.050)
        assert latency_percentile(samples, 99) == pytest.approx(0.099)
        assert latency_percentile(samples, 100) == pytest.approx(0.100)
        assert latency_percentile([0.007], 99) == pytest.approx(0.007)
        assert latency_percentile([], 50) == 0.0

    def test_rejects_bad_quantiles(self):
        with pytest.raises(ValueError):
            latency_percentile([1.0], 0)
        with pytest.raises(ValueError):
            latency_percentile([1.0], 101)


class TestClassification:
    """The invariant, case by case, with no server in the loop."""

    def _spec(self, kind="analyze", metric=None):
        return RequestSpec(kind, "aurora", "branch", seed=7, metric=metric)

    def test_identical_stale_and_mismatch(self):
        payload = {"metric": "M", "coefficients_hex": ["0x1"]}
        baseline = {("aurora", "branch", 7): {"M": definition_digest(payload)}}
        report = LoadStepReport(step=LoadStep("closed"))
        with obs.tracing(seed=7) as tracer:
            _classify(report, self._spec(), "analyze", {"M": payload}, baseline)
            _classify(
                report,
                self._spec(),
                "analyze",
                {"M": {**payload, "stale": True}},
                baseline,
            )
            _classify(
                report,
                self._spec(),
                "analyze",
                {"M": {"metric": "M", "coefficients_hex": ["0x2"]}},
                baseline,
            )
            assert (report.identical, report.stale) == (1, 1)
            assert len(report.violations) == 1
            assert "definition digest" in report.violations[0]
            assert tracer.counters["load.requests"] == 3
            assert tracer.counters["load.violations"] == 1

    def test_metric_reads_classify_like_analyses(self):
        payload = {"metric": "M", "coefficients_hex": ["0x1"]}
        baseline = {("aurora", "branch", 7): {"M": definition_digest(payload)}}
        report = LoadStepReport(step=LoadStep("closed"))
        _classify(
            report, self._spec("metric", metric="M"), "metric", payload, baseline
        )
        assert report.identical == 1 and not report.violations

    def test_typed_rejections_are_within_contract(self):
        report = LoadStepReport(step=LoadStep("closed"))
        _classify(report, self._spec(), "error", ServiceBusy(16), {})
        _classify(
            report,
            self._spec(),
            "error",
            ServiceError(503, {"error": "shard down", "retry": True}),
            {},
        )
        _classify(
            report, self._spec(), "error", TransportError("refused", None), {}
        )
        assert report.rejected == 3 and report.transport_rejected == 1
        assert not report.violations

    def test_untyped_errors_are_violations(self):
        report = LoadStepReport(step=LoadStep("closed"))
        _classify(report, self._spec(), "error", RuntimeError("boom"), {})
        _classify(
            report, self._spec(), "error", ServiceError(500, {"oops": 1}), {}
        )
        assert report.rejected == 0
        assert len(report.violations) == 2


class TestRunLoadDrillValidation:
    def test_bad_target_and_missing_root(self):
        with pytest.raises(ValueError, match="target"):
            run_load_drill(target="tripled")
        with pytest.raises(ValueError, match="catalog_root"):
            run_load_drill(target="sharded")
        with pytest.raises(ValueError, match="LoadStep"):
            run_load_drill(target="single", steps=())


class TestSingleTierDrill:
    def test_invariant_holds_and_percentiles_populate(self, tmp_path):
        workload = Workload(
            clients=3, requests_per_client=4, seed_pool=2, hot_fraction=0.5
        )
        with obs.tracing(seed=7) as tracer:
            report = run_load_drill(
                str(tmp_path / "catalog"),
                target="single",
                workload=workload,
                steps=(LoadStep("closed"), LoadStep("open", offered_rps=30.0)),
                cache_dir=str(tmp_path / "cache"),
            )
            assert report.ok, report.violations
            assert report.requests == 24
            assert tracer.counters["load.requests"] == 24
            assert tracer.counters["load.identical"] >= 1
        assert len(report.steps) == 2
        for step in report.steps:
            assert step.requests == 12
            assert step.rejected == 0
            assert 0 < step.p50_ms <= step.p95_ms <= step.p99_ms
            assert step.achieved_rps > 0
            row = step.to_row()
            assert row["violations"] == 0 and row["p99_ms"] >= row["p50_ms"]
        # The open-loop step was rate-limited, so it took at least its
        # schedule's span.
        open_step = report.steps[1]
        assert open_step.duration_seconds >= (12 - 1) / 30.0
        # Coalescing at the rendezvous: 3 clients, one computation.
        assert report.coalesced >= 1
        assert "load drill [single]" in report.summary()


class TestShardedTierDrill:
    def test_invariant_and_affinity_over_real_workers(self, tmp_path):
        """The expensive end-to-end: real spawn workers over real shard
        directories, judged request by request against the baseline."""
        workload = Workload(
            clients=3, requests_per_client=4, seed_pool=2, hot_fraction=0.5
        )
        with obs.tracing(seed=7) as tracer:
            report = run_load_drill(
                str(tmp_path / "catalog"),
                target="sharded",
                workers=2,
                shards=2,
                workload=workload,
                steps=(LoadStep("closed"),),
                cache_dir=str(tmp_path / "cache"),
            )
            assert report.ok, report.violations
            assert report.requests == 12
            # Shard-affinity routing actually routed: every request has
            # a catalog key, so every dispatch had a preferred worker.
            assert tracer.counters["supervisor.affinity_hits"] >= 1
        status = report.supervisor_status
        assert status is not None and status["live"] == 2
        assert status["affinity_hits"] >= 1
        # Hot keyed reads were answered by the dispatcher's replica-
        # fronted catalog view without a worker hop.
        assert status["front_serves"] >= 1
        # The rendezvous coalesced on the owning worker.
        assert report.coalesced >= 1
        # The drill's writes landed in shard directories.
        assert (tmp_path / "catalog" / "shards.json").exists()
        shard_dirs = [
            p for p in (tmp_path / "catalog").iterdir() if p.is_dir()
        ]
        assert len(shard_dirs) == 2


class TestServeEphemeralPort:
    def test_port_zero_prints_bound_port_on_stdout(self, tmp_path):
        """`repro-cat serve --port 0` must print the chosen port as the
        first stdout line so a harness can connect without racing for a
        fixed port (satellite S2)."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            port = int(line)  # first line is the port, nothing else
            assert 1024 <= port <= 65535
            from repro.serve import CatalogClient

            deadline = time.time() + 10
            while True:
                try:
                    assert CatalogClient(port=port, timeout=5.0).ready()
                    break
                except Exception:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.1)
        finally:
            proc.terminate()
            proc.wait(timeout=10)
