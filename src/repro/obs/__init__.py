"""Pipeline observability: span tracing, counters, trace export.

Zero-dependency instrumentation for the analysis pipeline.  Off by
default: every hook routes through the ambient tracer
(:func:`get_tracer`), which is the no-op :data:`NULL_TRACER` until a
:func:`tracing` scope activates a live one::

    from repro import obs

    with obs.tracing(seed=2024) as tracer:
        result = AnalysisPipeline.for_domain("branch", node).run()

    print(result.trace.render())              # summary tree + counters
    path.write_text(result.trace.to_jsonl())  # canonical JSONL export

Traced runs are bit-identical to untraced ones (property-tested); span
ids are deterministic functions of span path + seed.  The counter
vocabulary and span model are documented in ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.render import render_trace, trace_json_digest
from repro.obs.trace import (
    NULL_TRACER,
    Counters,
    Span,
    Trace,
    Tracer,
    get_tracer,
    span_id,
    tracing,
)

__all__ = [
    "NULL_TRACER",
    "Counters",
    "Span",
    "Trace",
    "Tracer",
    "get_tracer",
    "render_trace",
    "span_id",
    "trace_json_digest",
    "tracing",
]
