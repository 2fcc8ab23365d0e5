"""Tests for the parallel sweep engine and its pipeline-cache interplay."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import AnalysisPipeline, DOMAIN_CONFIGS
from repro.core.sweep import (
    SweepEngine,
    SweepTask,
    expand_grid,
    results_by_label,
)
from repro.hardware.systems import aurora_node
from repro.io.cache import MeasurementCache


class TestSweepTask:
    def test_label(self):
        assert SweepTask("aurora", "branch").label == "aurora:branch"

    def test_rejects_unknown_system(self):
        with pytest.raises(ValueError, match="unknown system"):
            SweepTask("summit", "branch")

    def test_rejects_incompatible_domain(self):
        with pytest.raises(ValueError, match="not measurable"):
            SweepTask("frontier", "branch")


class TestExpandGrid:
    def test_skips_incompatible_pairs(self):
        tasks = expand_grid(
            ["aurora", "frontier"], ["cpu_flops", "gpu_flops", "branch"]
        )
        labels = [t.label for t in tasks]
        assert labels == [
            "aurora:cpu_flops",
            "aurora:branch",
            "frontier:gpu_flops",
        ]

    def test_cache_dir_enables_caching(self, tmp_path):
        tasks = expand_grid(["aurora"], ["branch"], cache_dir=str(tmp_path))
        assert tasks[0].config.use_measurement_cache
        assert tasks[0].cache_dir == str(tmp_path)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            expand_grid(["nope"], ["branch"])


class TestSweepEngine:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError):
            SweepEngine(executor="gpu")

    def test_empty_tasks(self):
        assert SweepEngine().run([]) == []

    def test_serial_matches_direct_pipeline(self):
        outcome = SweepEngine(executor="serial").run(
            [SweepTask("aurora", "branch")]
        )[0]
        assert outcome.ok
        direct = AnalysisPipeline.for_domain("branch", aurora_node()).run()
        assert np.array_equal(
            outcome.result.measurement.data, direct.measurement.data
        )
        assert outcome.result.selected_events == direct.selected_events

    def test_process_pool_two_nodes_two_domains_ordered(self):
        # The acceptance scenario: >= 2 nodes x 2 domains through the
        # process pool with deterministic, ordered output.
        tasks = expand_grid(["aurora", "frontier-cpu"], ["cpu_flops", "branch"])
        assert len(tasks) == 4
        outcomes = SweepEngine(max_workers=2, executor="process").run(tasks)
        assert [o.task.label for o in outcomes] == [t.label for t in tasks]
        assert all(o.ok for o in outcomes), [o.error for o in outcomes]
        serial = SweepEngine(executor="serial").run(tasks)
        for parallel_outcome, serial_outcome in zip(outcomes, serial):
            assert np.array_equal(
                parallel_outcome.result.measurement.data,
                serial_outcome.result.measurement.data,
            )
            assert (
                parallel_outcome.result.selected_events
                == serial_outcome.result.selected_events
            )

    def test_task_error_does_not_sink_sweep(self, monkeypatch):
        import repro.core.sweep as sweep_mod

        def boom(seed):
            raise RuntimeError("node construction failed")

        monkeypatch.setitem(sweep_mod.SWEEP_SYSTEMS, "aurora", boom)
        outcomes = SweepEngine(executor="serial").run(
            [SweepTask("aurora", "branch"), SweepTask("frontier-cpu", "branch")]
        )
        assert not outcomes[0].ok
        assert "node construction failed" in outcomes[0].error
        assert outcomes[1].ok

    def test_results_by_label_drops_failures(self):
        outcomes = SweepEngine(executor="serial").run(
            [SweepTask("frontier-cpu", "branch")]
        )
        mapping = results_by_label(outcomes)
        assert list(mapping) == ["frontier-cpu:branch"]


class TestPipelineCacheIdentity:
    def test_cached_and_uncached_runs_identical(self):
        node = aurora_node()
        config = replace(DOMAIN_CONFIGS["branch"], use_measurement_cache=True)
        cache = MeasurementCache()
        uncached = AnalysisPipeline.for_domain("branch", node).run()
        first = AnalysisPipeline.for_domain(
            "branch", node, config=config, cache=cache
        ).run()
        second = AnalysisPipeline.for_domain(
            "branch", node, config=config, cache=cache
        ).run()
        # The second run hits the cache and skips measurement entirely.
        assert cache.stats.snapshot()["misses"] == 1
        assert cache.stats.snapshot()["memory_hits"] == 1
        assert second.measurement is first.measurement
        for result in (first, second):
            assert np.array_equal(
                result.measurement.data, uncached.measurement.data
            )
            assert result.selected_events == uncached.selected_events
            assert {n: m.error for n, m in result.metrics.items()} == {
                n: m.error for n, m in uncached.metrics.items()
            }
            assert {
                n: m.terms() for n, m in result.rounded_metrics.items()
            } == {n: m.terms() for n, m in uncached.rounded_metrics.items()}

    def test_cache_key_isolates_different_seeds(self):
        config = replace(DOMAIN_CONFIGS["branch"], use_measurement_cache=True)
        cache = MeasurementCache()
        a = AnalysisPipeline.for_domain(
            "branch", aurora_node(seed=1), config=config, cache=cache
        ).run()
        b = AnalysisPipeline.for_domain(
            "branch", aurora_node(seed=2), config=config, cache=cache
        ).run()
        assert cache.stats.snapshot()["misses"] == 2  # no false sharing across seeds
        assert not np.array_equal(a.measurement.data, b.measurement.data)
