"""Observability: request-lifecycle tracing and windowed latencies.

See ``docs/observability.md`` for the span taxonomy, metric naming
conventions, and how to open exported traces in Chrome.
"""

from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    PHASES,
    SPAN_KINDS,
    SpanEvent,
    Tracer,
    merge_events,
)
from repro.obs.metrics import WindowedHistogram
from repro.obs.export import (
    TRACE_SCHEMA,
    chrome_trace,
    events_from_file,
    format_trace_summary,
    unclosed_spans,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "SpanEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "SPAN_KINDS",
    "PHASES",
    "merge_events",
    "WindowedHistogram",
    "chrome_trace",
    "write_chrome_trace",
    "events_from_file",
    "validate_chrome_trace",
    "unclosed_spans",
    "format_trace_summary",
    "TRACE_SCHEMA",
]
