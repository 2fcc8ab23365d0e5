"""Blocking client for the metric service.

A thin :mod:`http.client` wrapper for scripts, tests, and the CI smoke
job — no asyncio required on the calling side.  Non-200 responses raise
:class:`~repro.serve.service.ServiceError` (or its
:class:`~repro.serve.service.ServiceBusy` subclass for 429) carrying the
server's JSON payload, so callers see the same structured errors the
async API raises.  Transport failures — connection refused, reset,
timeout, a torn response — raise the typed
:class:`~repro.serve.service.TransportError` instead of leaking raw
socket exceptions, so ``except ServiceError`` plus the ``retryable``
flag is the complete error-handling story; the retrying
:class:`~repro.serve.resilience.ResilientCatalogClient` builds on
exactly that contract.  The request itself is :func:`exchange`, which
the supervisor's front→worker hop calls directly.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import quote, urlencode

from repro.serve.service import ServiceBusy, ServiceError, TransportError

__all__ = ["CatalogClient", "exchange"]


def exchange(
    host: str, port: int, method: str, target: str, body: bytes, timeout: float
) -> Tuple[int, Dict[str, Any]]:
    """One blocking HTTP request over a fresh connection.

    Returns ``(status, JSON payload)`` for any status — mapping non-200
    answers is the caller's business.  Transport failures (refused,
    reset, timeout, a torn or non-JSON body) raise
    :class:`~repro.serve.service.TransportError` naming ``host:port``.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    where = f"{host}:{port}"
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        try:
            conn.request(method, target, body=body or None, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        except TimeoutError as exc:
            raise TransportError(
                f"no response from {where} within {timeout}s", exc
            ) from exc
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(
                f"{type(exc).__name__} talking to {where}: {exc}", exc
            ) from exc
        try:
            return response.status, json.loads(raw.decode() or "{}")
        except (UnicodeDecodeError, ValueError) as exc:
            raise TransportError(f"torn response from {where}", exc) from exc
    finally:
        conn.close()


class CatalogClient:
    """Blocking HTTP client for one :class:`HttpMetricServer`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8752, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload = json.dumps(body).encode() if body is not None else b""
        status, data = exchange(
            self.host, self.port, method, path, payload, self.timeout
        )
        if status == 429:
            raise ServiceBusy(int(data.get("queue_limit", 0)) or 1)
        if status != 200:
            raise ServiceError(status, data)
        return data

    # -- endpoints -----------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/healthz")

    def ready(self) -> bool:
        try:
            return bool(self._request("GET", "/readyz").get("ready"))
        except ServiceError as exc:
            if exc.status == 503:
                return False
            raise

    def metric(
        self,
        system: str,
        domain: str,
        metric: str,
        seed: int = 2024,
        faults: Optional[str] = None,
    ) -> Dict[str, Any]:
        """One served metric definition payload (raises on 4xx/5xx)."""
        query: Dict[str, Any] = {"seed": seed}
        if faults is not None:
            query["faults"] = faults
        path = (
            f"/v1/metric/{quote(system, safe='')}/{quote(domain, safe='')}/"
            f"{quote(metric, safe='')}?{urlencode(query)}"
        )
        return self._request("GET", path)

    def analyze(
        self,
        system: str,
        domain: str,
        seed: int = 2024,
        faults: Optional[str] = None,
    ) -> Dict[str, Dict[str, Any]]:
        """Every metric of a domain; returns ``{metric: payload}``."""
        body: Dict[str, Any] = {"system": system, "domain": domain, "seed": seed}
        if faults is not None:
            body["faults"] = faults
        return self._request("POST", "/v1/analyze", body=body)["metrics"]

    def catalog_list(self, arch: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/v1/catalog"
        if arch is not None:
            path += "?" + urlencode({"arch": arch})
        return self._request("GET", path)["entries"]

    def catalog_entry(
        self,
        arch: str,
        metric: str,
        digest: Optional[str] = None,
        version: Optional[int] = None,
    ) -> Dict[str, Any]:
        query: Dict[str, Any] = {}
        if digest is not None:
            query["digest"] = digest
        if version is not None:
            query["version"] = version
        path = f"/v1/catalog/{quote(arch, safe='')}/{quote(metric, safe='')}"
        if query:
            path += "?" + urlencode(query)
        return self._request("GET", path)
