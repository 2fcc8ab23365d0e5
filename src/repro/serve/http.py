"""Minimal stdlib HTTP front-end for the metric service.

A deliberately small HTTP/1.0 server over ``asyncio`` streams — no
framework, no dependency — exposing the service as JSON endpoints:

====================================================  =====================
``GET /healthz``                                      liveness: stats,
                                                      queue depth, obs
                                                      counters (always 200)
``GET /readyz``                                       readiness (200/503)
``GET /v1/metric/<system>/<domain>/<metric>``         one served definition
``POST /v1/analyze``                                  every metric of a
                                                      domain (JSON body:
                                                      system, domain,
                                                      seed, faults)
``GET /v1/catalog``                                   catalog summary rows
``GET /v1/catalog/<arch>/<metric>``                   stored entry /
                                                      history / diff
====================================================  =====================

``/v1/metric`` takes ``?seed=`` and ``?faults=`` query parameters;
``/v1/catalog/...`` takes ``?digest=`` (required when several config
digests exist), ``?version=``, ``?history=1``, and ``?diff=A..B``.
Metric segments are URL-encoded (metric names contain spaces).

Error envelope: every non-200 response is ``{"error": ..., ...}`` with
the HTTP status carrying the class — 400 validation, 404 unknown, 429
backpressure, 500 failed analysis, 503 not ready.  Connections are
closed after each response (HTTP/1.0 semantics): the clients this serves
are short-lived CLI/automation calls, not browsers.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

from repro.faults.chaos import ChaosInjector
from repro.guard.validate import ValidationError
from repro.serve.service import AnalysisRequest, MetricService, ServiceError

__all__ = [
    "HttpMetricServer",
    "format_response",
    "parse_analyze_body",
    "parse_metric_target",
    "read_http_request",
    "run_server",
    "serve_connection",
]

logger = logging.getLogger(__name__)

_MAX_REQUEST_BYTES = 1 << 20  # 1 MiB: analysis requests are tiny JSON


def format_response(status: int, payload: Dict[str, Any]) -> bytes:
    """Render one HTTP/1.0 JSON response (shared with the supervisor
    front, which speaks the same wire format)."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    reason = {
        200: "OK",
        400: "Bad Request",
        404: "Not Found",
        405: "Method Not Allowed",
        429: "Too Many Requests",
        500: "Internal Server Error",
        503: "Service Unavailable",
        504: "Gateway Timeout",
    }.get(status, "Error")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    ).encode()
    return head + body


async def read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, bytes]]:
    """Read ``(method, target, body)`` off an asyncio stream, or ``None``
    for an empty/garbled request line.  Shared with the supervisor front."""
    request_line = await reader.readline()
    if not request_line.strip():
        return None
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2:
        return None
    method, target = parts[0].upper(), parts[1]
    content_length = 0
    while True:
        line = await reader.readline()
        if not line.strip():
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            # 1*DIGIT (RFC 9110): a sign or a word is refused below as -1.
            value = value.strip()
            content_length = int(value) if value.isdecimal() else -1
    if content_length < 0:
        raise ServiceError(400, {"error": "malformed Content-Length"})
    if content_length > _MAX_REQUEST_BYTES:
        raise ServiceError(400, {"error": "request body too large"})
    try:
        body = await reader.readexactly(content_length)
    except asyncio.IncompleteReadError:
        raise ServiceError(400, {"error": "truncated request body"}) from None
    return method, target, body


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    route: Callable[[str, str, bytes], Awaitable[Tuple[int, Dict[str, Any]]]],
) -> None:
    """The request path of every listener (worker and supervisor front):
    read one request, ``route(method, target, body)`` it to a
    ``(status, payload)``, map failures to statuses, write the response,
    close.  ``ServiceError`` keeps its own status, validation
    failures are 400, and anything else is a logged 500 — a request must
    never kill the server."""
    try:
        try:
            raw = await read_http_request(reader)
            if raw is None:
                return
            status, payload = await route(*raw)
        except ServiceError as exc:
            status, payload = exc.status, exc.payload
        except (ValidationError, ValueError) as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — a request must never kill the server
            logger.exception("unhandled error serving a request")
            status, payload = 500, {
                "error": str(exc),
                "error_type": type(exc).__name__,
            }
        writer.write(format_response(status, payload))
        await writer.drain()
    except (ConnectionError, BrokenPipeError):
        pass
    finally:
        writer.close()


def _split_target(target: str) -> Tuple[List[str], Dict[str, str]]:
    """URL-decoded path segments and last-wins query parameters."""
    split = urlsplit(target)
    path = [unquote(p) for p in split.path.split("/") if p]
    return path, {k: v[-1] for k, v in parse_qs(split.query).items()}


def parse_metric_target(
    target: str,
) -> Optional[Tuple[str, str, str, int, Optional[str]]]:
    """``(system, domain, metric, seed, faults)`` of a
    ``/v1/metric/<system>/<domain>/<metric>?seed=&faults=`` target, or
    None for any other path.  A non-integer seed raises ``ValueError``
    (a 400); an empty ``faults`` means an unfaulted request."""
    path, query = _split_target(target)
    if len(path) != 5 or path[:2] != ["v1", "metric"]:
        return None
    _, _, system, domain, metric = path
    seed = int(query.get("seed", 2024))
    return system, domain, metric, seed, query.get("faults") or None


def parse_analyze_body(body: bytes) -> AnalysisRequest:
    """The validated :class:`AnalysisRequest` of a ``POST /v1/analyze``
    JSON body; malformed bodies raise a 400 (``ServiceError`` or
    ``ValidationError``).  An empty ``faults`` means an unfaulted request."""
    try:
        request = json.loads(body.decode() or "{}")
    except json.JSONDecodeError as exc:
        raise ServiceError(
            400, {"error": f"request body is not JSON: {exc}"}
        ) from None
    if (
        not isinstance(request, dict)
        or "system" not in request
        or "domain" not in request
    ):
        raise ServiceError(400, {"error": "body must name 'system' and 'domain'"})
    return AnalysisRequest(
        request["system"],
        request["domain"],
        seed=int(request.get("seed", 2024)),
        faults=request.get("faults") or None,
    )


class HttpMetricServer:
    """One bound listener serving a :class:`MetricService` over HTTP."""

    def __init__(
        self,
        service: MetricService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chaos: Optional[ChaosInjector] = None,
        chaos_scope: str = "w0",
    ):
        self.service = service
        self.host = host
        self.port = port
        # Serve-layer chaos (see repro.faults.chaos): when set, each
        # accepted request consults the injector at site
        # ``request:<chaos_scope>:<ordinal>`` for socket drops, injected
        # latency, and loop-blocking hangs.
        self.chaos = chaos
        self.chaos_scope = chaos_scope
        self._accepted = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> int:
        """Start the service and the listener; returns the bound port."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    # -- request handling ---------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._accepted += 1
        site = f"request:{self.chaos_scope}:{self._accepted}"
        chaos = self.chaos
        if chaos is not None and chaos.enabled:
            if chaos.fires("socket-drop", site):
                writer.close()
                return
            delay = chaos.latency(site)
            if delay:
                await asyncio.sleep(delay)
            if chaos.fires("worker-hang", site):
                # Deliberately block the event loop: a wedged loop is the
                # pathology the supervisor's heartbeat must detect.
                time.sleep(chaos.config.hang_seconds)
        await serve_connection(reader, writer, self._route)

    async def _route(
        self, method: str, target: str, body: bytes
    ) -> Tuple[int, Dict[str, Any]]:
        keyed = parse_metric_target(target)
        if keyed is not None:
            if method != "GET":
                return 405, {"error": "use GET for /v1/metric"}
            system, domain, metric, seed, faults = keyed
            served = await self.service.get_metric(
                system, domain, metric, seed=seed, faults=faults
            )
            return 200, served.to_payload()

        path, query = _split_target(target)
        if path == ["healthz"]:
            return 200, self.service.health()
        if path == ["readyz"]:
            if self.service.ready:
                return 200, {"ready": True}
            return 503, {"ready": False, "error": "service is not ready"}

        if path == ["v1", "analyze"]:
            if method != "POST":
                return 405, {"error": "use POST for /v1/analyze"}
            request = parse_analyze_body(body)
            served = await self.service.analyze(
                request.system,
                request.domain,
                seed=request.seed,
                faults=request.faults,
            )
            return 200, {
                "metrics": {
                    name: metric.to_payload() for name, metric in served.items()
                }
            }

        if path[:2] == ["v1", "catalog"]:
            return self._route_catalog(path[2:], query)

        return 404, {"error": f"no route for {method} {urlsplit(target).path}"}

    def _route_catalog(
        self, rest: list, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        store = self.service.store
        if store is None:
            return 404, {"error": "no catalog configured on this service"}
        if not rest:
            return 200, {"entries": store.list_entries(query.get("arch"))}
        if len(rest) != 2:
            return 404, {"error": "expected /v1/catalog/<arch>/<metric>"}
        arch, metric = rest
        digest = query.get("digest")
        if digest is None:
            digests = sorted(
                {
                    row["config_digest"]
                    for row in store.list_entries(arch)
                    if row["metric"] == metric
                }
            )
            if not digests:
                return 404, {
                    "error": f"no catalog entry for ({arch!r}, {metric!r})"
                }
            if len(digests) > 1:
                return 400, {
                    "error": "several config digests stored for this metric; "
                    "pick one with ?digest=",
                    "digests": digests,
                }
            digest = digests[0]
        if "diff" in query:
            a, _, b = query["diff"].partition("..")
            try:
                diff = store.diff(arch, metric, digest, int(a), int(b))
            except (KeyError, ValueError) as exc:
                return 404, {"error": str(exc)}
            return 200, {"diff": diff.render(), "identical": diff.identical}
        if query.get("history"):
            return 200, {
                "history": [
                    e.to_payload() for e in store.history(arch, metric, digest)
                ]
            }
        version = int(query["version"]) if "version" in query else None
        entry = store.get(arch, metric, digest, version=version)
        if entry is None:
            return 404, {
                "error": f"no catalog entry for ({arch!r}, {metric!r}, "
                f"{digest})"
            }
        return 200, entry.to_payload()


async def run_server(
    service: MetricService,
    host: str = "127.0.0.1",
    port: int = 8752,
    ready_message=None,
) -> None:
    """Serve until cancelled (the CLI wraps this in ``asyncio.run`` and
    translates Ctrl-C into a clean stop)."""
    server = HttpMetricServer(service, host=host, port=port)
    bound = await server.start()
    if ready_message is not None:
        ready_message(bound)
    try:
        await asyncio.Event().wait()  # sleep until cancelled
    finally:
        await server.stop()
