"""Tests for the HTTP front-end and the blocking CatalogClient.

The server runs on an ephemeral localhost port inside the test's event
loop; the blocking client is driven through ``run_in_executor`` so one
loop hosts both sides.
"""

import asyncio
import functools
import json
from urllib.parse import quote

import pytest

from repro.serve import (
    CatalogClient,
    HttpMetricServer,
    MetricCatalogStore,
    MetricService,
    ServiceError,
)

METRIC = "Mispredicted Branches."


async def _with_server(body, **service_kwargs):
    """Start service+listener, run ``body(client, server)``, stop."""
    service = MetricService(**service_kwargs)
    server = HttpMetricServer(service, port=0)
    port = await server.start()
    loop = asyncio.get_running_loop()
    client = CatalogClient(port=port)

    def call(fn, *args, **kwargs):
        return loop.run_in_executor(None, functools.partial(fn, *args, **kwargs))

    try:
        return await body(client, call, server)
    finally:
        await server.stop()


def run_async(coro):
    return asyncio.run(coro)


class TestEndpoints:
    def test_health_and_ready(self, tmp_path):
        async def body(client, call, server):
            health = await call(client.health)
            assert health["ready"] is True
            assert await call(client.ready) is True

        run_async(_with_server(body, cache_dir=str(tmp_path / "cache")))

    def test_metric_and_analyze_round_trip(self, tmp_path):
        async def body(client, call, server):
            payload = await call(
                client.metric, "aurora", "branch", METRIC, seed=7
            )
            assert payload["source"] == "pipeline"
            assert payload["metric"] == METRIC
            assert payload["version"] == 1
            # The hex coefficient encoding survives the HTTP round trip
            # bit-exactly.
            from repro.serve.catalog import CatalogEntry

            entry = CatalogEntry.from_payload(
                {k: v for k, v in payload.items() if k != "source"}
            )
            assert entry.definition().coefficients.dtype == "float64"

            everything = await call(client.analyze, "aurora", "branch", seed=7)
            assert METRIC in everything
            assert everything[METRIC]["source"] == "catalog"

        run_async(
            _with_server(
                body,
                store=MetricCatalogStore(tmp_path / "catalog"),
                cache_dir=str(tmp_path / "cache"),
            )
        )

    def test_catalog_endpoints(self, tmp_path):
        async def body(client, call, server):
            await call(client.analyze, "aurora", "branch", seed=7)
            rows = await call(client.catalog_list)
            assert rows and all(r["latest_version"] == 1 for r in rows)
            entry = await call(
                client.catalog_entry, rows[0]["arch"], rows[0]["metric"]
            )
            assert entry["version"] == 1
            filtered = await call(client.catalog_list, rows[0]["arch"])
            assert filtered == rows

        run_async(
            _with_server(
                body,
                store=MetricCatalogStore(tmp_path / "catalog"),
                cache_dir=str(tmp_path / "cache"),
            )
        )


class TestErrorMapping:
    def test_unknown_route_is_404(self, tmp_path):
        async def body(client, call, server):
            with pytest.raises(ServiceError) as err:
                await call(client._request, "GET", "/nope")
            assert err.value.status == 404

        run_async(_with_server(body, cache_dir=str(tmp_path / "cache")))

    def test_validation_error_is_400(self, tmp_path):
        async def body(client, call, server):
            with pytest.raises(ServiceError) as err:
                await call(client.metric, "cray", "branch", METRIC)
            assert err.value.status == 400
            assert "unknown system" in err.value.payload["error"]

        run_async(_with_server(body, cache_dir=str(tmp_path / "cache")))

    def test_injected_crash_is_structured_500(self, tmp_path):
        async def body(client, call, server):
            with pytest.raises(ServiceError) as err:
                await call(
                    client.metric,
                    "aurora",
                    "branch",
                    METRIC,
                    seed=7,
                    faults="crash=1.0",
                )
            assert err.value.status == 500
            assert err.value.payload["error_type"] == "InjectedWorkerCrash"

        run_async(
            _with_server(body, retries=0, cache_dir=str(tmp_path / "cache"))
        )

    def test_catalog_on_storeless_service_is_404(self, tmp_path):
        async def body(client, call, server):
            with pytest.raises(ServiceError) as err:
                await call(client.catalog_list)
            assert err.value.status == 404

        run_async(_with_server(body, cache_dir=str(tmp_path / "cache")))

    def test_malformed_analyze_body_is_400(self, tmp_path):
        async def body(client, call, server):
            with pytest.raises(ServiceError) as err:
                await call(client._request, "POST", "/v1/analyze", {"system": "aurora"})
            assert err.value.status == 400

            import http.client

            def raw_junk():
                conn = http.client.HTTPConnection(
                    client.host, client.port, timeout=10
                )
                try:
                    conn.request(
                        "POST",
                        "/v1/analyze",
                        body=b"not json",
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    return response.status, json.loads(response.read().decode())
                finally:
                    conn.close()

            status, payload = await call(raw_junk)
            assert status == 400
            assert "not JSON" in payload["error"]

        run_async(_with_server(body, cache_dir=str(tmp_path / "cache")))

    def test_wrong_method_is_405(self, tmp_path):
        async def body(client, call, server):
            with pytest.raises(ServiceError) as err:
                await call(client._request, "GET", "/v1/analyze")
            assert err.value.status == 405

        run_async(_with_server(body, cache_dir=str(tmp_path / "cache")))


class TestSharedRequestPath:
    @staticmethod
    def _answers(request, half_close=False):
        """``(status, payload)`` of one raw request sent to the worker and
        to the supervisor front (neither listener needs its workers or
        its pipeline for a request refused at the wire)."""
        from repro.serve import (
            ServiceSupervisor,
            SupervisorConfig,
            SupervisorServer,
        )

        worker = HttpMetricServer(MetricService())
        front = SupervisorServer(
            ServiceSupervisor(None, config=SupervisorConfig(workers=1))
        )

        async def status_of(handler):
            server = await asyncio.start_server(handler, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(request)
                await writer.drain()
                if half_close:
                    writer.write_eof()
                response = await reader.read()
                writer.close()
            finally:
                server.close()
                await server.wait_closed()
            head, _, body = response.partition(b"\r\n\r\n")
            return int(head.split()[1]), json.loads(body)

        return [
            run_async(status_of(handler))
            for handler in (worker._handle, front._handle)
        ]

    def test_negative_content_length_is_400_on_worker_and_front(self):
        """The worker and the supervisor front share one request path,
        so the same malformed request gets the same typed 400 from both;
        a length that is not a non-negative integer is refused, never
        read as an empty body."""
        for length in (b"-5", b"abc", b"+5", b""):
            request = (
                b"POST /v1/analyze HTTP/1.0\r\nContent-Length: "
                + length
                + b"\r\n\r\n{}"
            )
            answers = self._answers(request)
            assert [status for status, _ in answers] == [400, 400], length
            assert all("Content-Length" in p["error"] for _, p in answers)

    def test_truncated_body_is_400_on_worker_and_front(self, caplog):
        """A client that sends fewer body bytes than its Content-Length
        and half-closes gets a typed 400, and nothing is logged as a 500."""
        request = b"POST /v1/analyze HTTP/1.0\r\nContent-Length: 50\r\n\r\n{}"
        with caplog.at_level("ERROR"):
            answers = self._answers(request, half_close=True)
        assert [status for status, _ in answers] == [400, 400]
        assert all("truncated" in payload["error"] for _, payload in answers)
        assert not [r for r in caplog.records if r.levelname == "ERROR"]

    def test_empty_faults_is_an_unfaulted_request(self, tmp_path):
        """An empty fault spec, as ``?faults=`` or ``"faults": ""``, is
        an unfaulted request: it is answered from the catalog."""

        async def body(client, call, server):
            await call(client.analyze, "aurora", "branch", seed=7)
            read = await call(
                client._request,
                "GET",
                f"/v1/metric/aurora/branch/{quote(METRIC)}?seed=7&faults=",
            )
            assert read["source"] == "catalog"
            analysis = await call(
                client._request,
                "POST",
                "/v1/analyze",
                {"system": "aurora", "domain": "branch", "seed": 7, "faults": ""},
            )
            assert {m["source"] for m in analysis["metrics"].values()} == {
                "catalog"
            }

        run_async(
            _with_server(
                body,
                store=MetricCatalogStore(tmp_path / "catalog"),
                cache_dir=str(tmp_path / "cache"),
            )
        )
