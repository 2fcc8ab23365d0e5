"""Unit tests for the resilient client: retry, breaker, deadline, hedging.

Everything socket-free: the transport seam injects scripted fake
clients, and clock/sleep are simulated so backoff and deadline behaviour
is exact and instant.
"""

import threading
import time

import pytest

from repro import obs
from repro.serve.resilience import (
    BreakerOpen,
    CircuitBreaker,
    DeadlineExceeded,
    ResilientCatalogClient,
    RetryPolicy,
    idempotency_key,
)
from repro.serve.service import ServiceError, TransportError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def time(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


class ScriptedClient:
    """One fake CatalogClient: pops the next behaviour per call."""

    def __init__(self, script, clock=None):
        self.script = script
        self.clock = clock

    def _next(self):
        action = self.script.pop(0) if self.script else "ok"
        if isinstance(action, Exception):
            if self.clock is not None:
                self.clock.sleep(0.01)
            raise action
        return action

    def metric(self, *args, **kwargs):
        value = self._next()
        return value if isinstance(value, dict) else {"metric": "m", "ok": value}

    def analyze(self, *args, **kwargs):
        value = self._next()
        return value if isinstance(value, dict) else {"m": {"ok": value}}

    def health(self):
        return {"ok": self._next()}

    def ready(self):
        return self._next() == "ok"

    def catalog_list(self, arch=None):
        self._next()
        return []

    def catalog_entry(self, *args, **kwargs):
        return {"ok": self._next()}


def _client(scripts, clock=None, **kwargs):
    """Build a ResilientCatalogClient over scripted per-port transports."""
    clock = clock or FakeClock()
    endpoints = [("127.0.0.1", port) for port in sorted(scripts)]
    calls = []

    def transport(host, port, timeout):
        calls.append((port, timeout))
        return ScriptedClient(scripts[port], clock=clock)

    client = ResilientCatalogClient(
        endpoints,
        clock=clock.time,
        sleep=clock.sleep,
        transport=transport,
        **kwargs,
    )
    return client, calls, clock


def _transport_error():
    return TransportError("connection refused", ConnectionRefusedError())


class TestRetryPolicy:
    def test_delay_is_deterministic_per_key(self):
        policy = RetryPolicy()
        assert policy.delay("k", 2) == policy.delay("k", 2)
        assert policy.delay("k", 2) != policy.delay("other", 2)

    def test_delay_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.4)
        # jitter keeps each delay within [base/2, base)
        for attempt, base in ((1, 0.1), (2, 0.2), (3, 0.4), (9, 0.4)):
            delay = policy.delay("k", attempt)
            assert base / 2 <= delay < base

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestIdempotencyKey:
    def test_matches_coalescing_identity(self):
        base = idempotency_key("aurora", "branch", 7, None)
        assert base == idempotency_key("aurora", "branch", 7, None)
        assert base != idempotency_key("aurora", "branch", 8, None)
        assert base != idempotency_key("aurora", "cache", 7, None)
        assert base != idempotency_key("aurora", "branch", 7, "crash=1.0")


class TestCircuitBreaker:
    def test_trips_after_threshold_and_half_opens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=3, reset_after=5.0, clock=clock.time
        )
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.open_for == pytest.approx(5.0)
        clock.sleep(5.1)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # only one probe at a time
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after=2.0, clock=clock.time
        )
        breaker.record_failure()
        clock.sleep(2.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_counters(self):
        with obs.tracing(seed=0) as trace:
            clock = FakeClock()
            breaker = CircuitBreaker(
                failure_threshold=1, reset_after=1.0, clock=clock.time
            )
            breaker.record_failure()
            clock.sleep(1.1)
            breaker.allow()
            breaker.record_success()
        assert trace.counters["breaker.opened"] == 1
        assert trace.counters["breaker.half_open"] == 1
        assert trace.counters["breaker.closed"] == 1


class TestResilientCall:
    def test_retries_transport_errors_until_success(self):
        client, calls, _ = _client(
            {9001: [_transport_error(), _transport_error(), {"metric": "m"}]},
            retry=RetryPolicy(max_attempts=4, backoff_base=0.01),
            breaker_factory=None,
        )
        payload = client.metric("aurora", "branch", "m")
        assert payload == {"metric": "m"}
        assert len(calls) == 3

    def test_non_retryable_errors_raise_immediately(self):
        client, calls, _ = _client(
            {9001: [ServiceError(404, {"error": "no such metric"})]},
            breaker_factory=None,
        )
        with pytest.raises(ServiceError) as err:
            client.metric("aurora", "branch", "m")
        assert err.value.status == 404
        assert len(calls) == 1

    def test_rotates_endpoints_across_attempts(self):
        client, calls, _ = _client(
            {9001: [_transport_error()], 9002: [{"metric": "m"}]},
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            breaker_factory=None,
        )
        assert client.metric("aurora", "branch", "m") == {"metric": "m"}
        assert [port for port, _ in calls] == [9001, 9002]

    def test_exhausted_retries_raise_last_error(self):
        client, _, _ = _client(
            {9001: [_transport_error()] * 5},
            retry=RetryPolicy(max_attempts=3, backoff_base=0.01),
            breaker_factory=None,
        )
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")

    def test_deadline_exceeded_is_typed_504(self):
        clock = FakeClock()
        client, _, _ = _client(
            {9001: [_transport_error()] * 100},
            clock=clock,
            retry=RetryPolicy(max_attempts=100, backoff_base=0.5, backoff_cap=0.5),
            deadline=1.0,
            breaker_factory=None,
        )
        with pytest.raises(DeadlineExceeded) as err:
            client.metric("aurora", "branch", "m")
        assert err.value.status == 504
        assert err.value.retryable

    def test_attempt_timeout_clamped_to_remaining_deadline(self):
        clock = FakeClock()
        client, calls, _ = _client(
            {9001: [{"metric": "m"}]},
            clock=clock,
            timeout=30.0,
            deadline=2.0,
            breaker_factory=None,
        )
        client.metric("aurora", "branch", "m")
        assert calls[0][1] <= 2.0

    def test_breaker_fast_fails_after_repeated_failures(self):
        client, calls, _ = _client(
            {9001: [_transport_error()] * 10},
            retry=RetryPolicy(max_attempts=2, backoff_base=0.01),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=2, reset_after=60.0
            ),
        )
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")
        transport_calls = len(calls)
        with pytest.raises(BreakerOpen) as err:
            client.metric("aurora", "branch", "m")
        assert len(calls) == transport_calls  # no socket touched
        assert err.value.retryable

    def test_application_errors_do_not_trip_breaker(self):
        client, _, _ = _client(
            {9001: [ServiceError(404, {"error": "nope"})] * 3},
            breaker_factory=lambda: CircuitBreaker(failure_threshold=1),
        )
        for _ in range(3):
            with pytest.raises(ServiceError):
                client.metric("aurora", "branch", "m")
        assert client.breaker(("127.0.0.1", 9001)).state == "closed"

    def test_unexpected_exception_does_not_brick_half_open_breaker(self):
        """A non-ServiceError raised during the half-open probe (a bug
        in the transport factory, say) must still settle the breaker —
        a leaked probe would leave allow() False forever."""
        clock = FakeClock()
        client, _, clock = _client(
            {9001: [_transport_error(), RuntimeError("factory bug"), "ok"]},
            clock=clock,
            retry=RetryPolicy(max_attempts=1),
            breaker_factory=lambda: CircuitBreaker(
                failure_threshold=1, reset_after=5.0, clock=clock.time
            ),
        )
        breaker = client.breaker(("127.0.0.1", 9001))
        with pytest.raises(ServiceError):
            client.metric("aurora", "branch", "m")  # trips the breaker
        assert breaker.state == "open"
        clock.sleep(5.1)
        with pytest.raises(RuntimeError):
            client.metric("aurora", "branch", "m")  # probe blows up
        # The failed probe re-opened the breaker instead of wedging it
        # half-open: after another reset window a new probe is admitted
        # and its success re-closes the breaker.
        assert breaker.state == "open"
        clock.sleep(5.1)
        assert client.metric("aurora", "branch", "m")["ok"] == "ok"
        assert breaker.state == "closed"

    def test_accept_stale_false_rejects_stale_payloads(self):
        stale = {"metric": "m", "stale": True, "stale_age_seconds": 5.0}
        client, _, _ = _client(
            {9001: [stale]}, accept_stale=False, breaker_factory=None
        )
        with pytest.raises(ServiceError) as err:
            client.metric("aurora", "branch", "m")
        assert err.value.status == 503
        assert err.value.payload["stale"] is True

    def test_accept_stale_true_passes_stale_through(self):
        stale = {"metric": "m", "stale": True}
        client, _, _ = _client({9001: [stale]}, breaker_factory=None)
        assert client.metric("aurora", "branch", "m") == stale


class TestHedging:
    def test_hedge_fires_after_delay_and_first_success_wins(self):
        release = threading.Event()

        class SlowPrimary:
            def metric(self, *a, **k):
                release.wait(timeout=5.0)
                return {"metric": "m", "from": "primary"}

        class FastReplica:
            def metric(self, *a, **k):
                return {"metric": "m", "from": "replica"}

        def transport(host, port, timeout):
            return SlowPrimary() if port == 9001 else FastReplica()

        client = ResilientCatalogClient(
            [("127.0.0.1", 9001), ("127.0.0.1", 9002)],
            transport=transport,
            hedge_delay=0.05,
            breaker_factory=None,
        )
        with obs.tracing(seed=0) as trace:
            payload = client.metric("aurora", "branch", "m")
        release.set()
        assert payload["from"] == "replica"
        assert trace.counters["client.hedged_reads"] == 1

    def test_fast_primary_skips_the_hedge(self):
        ports = []

        class Fast:
            def __init__(self, port):
                self.port = port

            def metric(self, *a, **k):
                ports.append(self.port)
                return {"metric": "m"}

        client = ResilientCatalogClient(
            [("127.0.0.1", 9001), ("127.0.0.1", 9002)],
            transport=lambda h, p, t: Fast(p),
            hedge_delay=0.5,
            breaker_factory=None,
        )
        client.metric("aurora", "branch", "m")
        assert ports == [9001]

    def test_winner_returns_without_waiting_for_the_loser(self):
        """The hedge's latency benefit: a hung primary must not block
        the caller once the replica has answered (the loser keeps
        running in its thread and is discarded)."""
        release = threading.Event()
        loser_finished = threading.Event()

        class HungPrimary:
            def metric(self, *a, **k):
                release.wait(timeout=30.0)
                loser_finished.set()
                return {"metric": "m", "from": "primary"}

        class FastReplica:
            def metric(self, *a, **k):
                return {"metric": "m", "from": "replica"}

        def transport(host, port, timeout):
            return HungPrimary() if port == 9001 else FastReplica()

        client = ResilientCatalogClient(
            [("127.0.0.1", 9001), ("127.0.0.1", 9002)],
            transport=transport,
            hedge_delay=0.05,
            breaker_factory=None,
        )
        start = time.monotonic()
        payload = client.metric("aurora", "branch", "m")
        elapsed = time.monotonic() - start
        release.set()
        assert payload["from"] == "replica"
        assert not loser_finished.is_set()  # returned while it still hung
        assert elapsed < 5.0

    def test_hedged_total_failure_raises_first_error(self):
        class Broken:
            def metric(self, *a, **k):
                raise TransportError("down", None)

        client = ResilientCatalogClient(
            [("127.0.0.1", 9001), ("127.0.0.1", 9002)],
            transport=lambda h, p, t: Broken(),
            retry=RetryPolicy(max_attempts=1),
            hedge_delay=0.01,
            breaker_factory=None,
        )
        with pytest.raises(TransportError):
            client.metric("aurora", "branch", "m")


class TestClientTransportTyping:
    """S1: raw socket failures surface as typed, retryable errors."""

    def test_connection_refused_is_transport_error(self):
        from repro.serve.client import CatalogClient

        # An unbound localhost port: connect must fail fast.
        client = CatalogClient("127.0.0.1", 1, timeout=2.0)
        with pytest.raises(TransportError) as err:
            client.health()
        assert err.value.status == 503
        assert err.value.retryable
        assert "transport failure" in err.value.payload["error"]

    def test_torn_response_is_transport_error(self):
        import socket

        from repro.serve.client import CatalogClient

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]

        def serve_garbage():
            conn, _ = listener.accept()
            conn.recv(1024)
            conn.sendall(b"HTTP/1.0 200 OK\r\nContent-Length: 8\r\n\r\n{\"trunc")
            conn.close()

        thread = threading.Thread(target=serve_garbage, daemon=True)
        thread.start()
        client = CatalogClient("127.0.0.1", port, timeout=5.0)
        with pytest.raises(TransportError):
            client.health()
        thread.join(timeout=5.0)
        listener.close()

    def test_exchange_returns_non_200_status_and_payload(self):
        """The forward hop relays a worker's error answer verbatim:
        ``exchange`` raises only on transport failure, never on status."""
        import json
        import socket

        from repro.serve.client import exchange

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        body = json.dumps({"error": "queue full", "queue_limit": 4}).encode()
        received = []

        def serve_busy():
            conn, _ = listener.accept()
            received.append(conn.recv(4096))
            conn.sendall(
                b"HTTP/1.0 429 Too Many Requests\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            conn.close()

        thread = threading.Thread(target=serve_busy, daemon=True)
        thread.start()
        status, payload = exchange(
            "127.0.0.1", port, "POST", "/v1/analyze", b'{"seed": 1}', 5.0
        )
        thread.join(timeout=5.0)
        listener.close()
        assert status == 429
        assert payload == {"error": "queue full", "queue_limit": 4}
        assert received[0].startswith(b"POST /v1/analyze ")

    def test_retryable_flag_contract(self):
        assert TransportError("x", None).retryable
        assert ServiceError(429, {}).retryable
        assert ServiceError(503, {}).retryable
        assert not ServiceError(404, {}).retryable
        assert ServiceError(500, {"retry": True}).retryable
