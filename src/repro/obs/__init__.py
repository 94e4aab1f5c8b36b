"""Observability: request tracing, metrics, profiling, and exporters.

The repo's fourth cross-cutting seam (after backend, transport, and
store).  Four pieces:

* :mod:`repro.obs.trace` — span API with cross-process trace-context
  propagation over the worker wire protocol; ~zero cost when disabled;
* :mod:`repro.obs.metrics` — process-local counters/gauges/histograms
  with JSON-safe snapshots that :class:`repro.serving.ServingReport`
  embeds;
* :mod:`repro.obs.profile` — :class:`ProfilingBackend` timing the hot
  kernels of any wrapped ``ArrayBackend``;
* :mod:`repro.obs.export` — JSONL span logs and Chrome
  trace-event/Perfetto JSON (``repro serve --trace trace.json``).

Typical use::

    from repro import obs

    obs.enable_tracing()
    ...serve traffic...
    obs.write_chrome_trace(obs.get_tracer().spans(), "trace.json")
    print(obs.get_registry().render_text())
"""

from .trace import (
    NOOP_SPAN,
    SpanRecord,
    TRACE_SCHEMA_VERSION,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    new_span_id,
    span,
    span_dict,
    tracing_enabled,
)
from .metrics import (
    Counter,
    DEFAULT_SECONDS_BOUNDS,
    Gauge,
    Histogram,
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    get_registry,
)
from .profile import PROFILED_KERNELS, ProfilingBackend
from .export import chrome_trace, jsonl_lines, write_chrome_trace, write_jsonl

__all__ = [
    "Counter",
    "DEFAULT_SECONDS_BOUNDS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NOOP_SPAN",
    "PROFILED_KERNELS",
    "ProfilingBackend",
    "SpanRecord",
    "TRACE_SCHEMA_VERSION",
    "Tracer",
    "chrome_trace",
    "disable_tracing",
    "enable_tracing",
    "get_registry",
    "get_tracer",
    "jsonl_lines",
    "new_span_id",
    "span",
    "span_dict",
    "tracing_enabled",
    "write_chrome_trace",
    "write_jsonl",
]
