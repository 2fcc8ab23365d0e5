"""Tests for the process-lifetime counters (repro.obs.Counters)."""

import sys
import threading

import pytest

from repro import obs
from repro.obs import Counters


class TestCounters:
    def test_snapshot_lists_declared_zeros(self):
        counters = Counters("demo", ("hits", "misses"))
        assert counters.snapshot() == {"hits": 0, "misses": 0}
        counters.incr("misses")
        assert counters.snapshot() == {"hits": 0, "misses": 1}

    def test_undeclared_name_raises(self):
        counters = Counters("demo", ("hits",))
        with pytest.raises(KeyError):
            counters.incr("hit")
        assert counters.snapshot() == {"hits": 0}

    def test_incr_returns_running_total(self):
        counters = Counters("demo", ("hits",))
        assert counters.incr("hits") == 1
        assert counters.incr("hits", 3) == 4
        assert counters.snapshot()["hits"] == 4

    def test_mirrors_into_tracing_scope_only(self):
        counters = Counters("demo", ("hits", "misses"))
        counters.incr("hits")
        with obs.tracing(seed=0) as tracer:
            counters.incr("hits", 2)
        counters.incr("hits")
        # The trace holds only what happened inside the scope; the
        # lifetime total holds everything.
        assert tracer.counters == {"demo.hits": 2}
        assert counters.snapshot()["hits"] == 4

    def test_concurrent_increments_sum_exactly(self):
        counters = Counters("demo", ("hits",))
        threads, per_thread = 8, 1000
        start = threading.Barrier(threads)

        def bump():
            start.wait(timeout=10)
            for _ in range(per_thread):
                counters.incr("hits")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=bump) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert counters.snapshot()["hits"] == threads * per_thread
