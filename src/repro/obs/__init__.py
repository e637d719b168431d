"""Unified observability: metrics, tracing and profiling for the stack.

The reproduction's Stretch monitor is itself an observability argument —
it extends CPI² by watching per-window performance signals to drive ROB/LSQ
repartitioning — and this package gives the surrounding system the same
kind of visibility:

* :mod:`repro.obs.metrics` — a metrics registry (counters, gauges,
  histograms, windowed time series) with near-zero overhead when disabled;
* :mod:`repro.obs.sampler` — interval sampling: per-window UIPC, ROB/LSQ
  occupancy, stall breakdowns and miss rates from :class:`FastCore` runs
  (:class:`IntervalSampler`);
* :mod:`repro.obs.fleet` — the per-window ``fleet.*`` instruments of fleet
  and one-server days;
* :mod:`repro.obs.tracer` — a span tracer emitting Chrome trace-event
  JSON (Perfetto-viewable) for the engine job lifecycle and, via
  :func:`pipeline_trace`, the SMT pipeline's µop interleaving;
* :mod:`repro.obs.profiler` — scoped wall-time timers around the
  simulator and engine hot loops, rendered as a self-time table;
* :mod:`repro.obs.slo` — declarative fleet SLOs with multi-window
  burn-rate alerting and error-budget accounting;
* :mod:`repro.obs.recorder` — the violation flight recorder and its
  postmortem-bundle analyzer;
* :mod:`repro.obs.export` — OpenMetrics rendering, the ``/metrics``
  scrape endpoint, and the terminal live dashboard.

Everything is surfaced through ``stretch-repro run --trace/--metrics/
--profile`` and ``stretch-repro inspect``; see docs/API.md §Observability.
"""

from repro.obs.export import (
    DashboardPrinter,
    ObservabilityServer,
    parse_openmetrics,
    render_dashboard,
    render_openmetrics,
    validate_openmetrics,
)
from repro.obs.fleet import publish_fleet_metrics, publish_fleet_window
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    TimeSeries,
    get_registry,
    set_registry,
)
from repro.obs.profiler import (
    Profiler,
    active_profiler,
    disable_profiling,
    enable_profiling,
)
from repro.obs.sampler import (
    DEFAULT_WINDOW_CYCLES,
    METRICS_ENV,
    IntervalSampler,
    JsonlSink,
    ThreadWindow,
    WindowSample,
    attach_core_observers,
)
from repro.obs.recorder import (
    FlightRecorder,
    analyze_bundle,
    attribute_capture,
    load_bundle,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    BurnPolicy,
    SLOEngine,
    SLOSpec,
    parse_slo,
)
from repro.obs.tracer import SpanTracer, pipeline_trace

__all__ = [
    "BurnPolicy",
    "Counter",
    "DEFAULT_SLOS",
    "DEFAULT_WINDOW_CYCLES",
    "DashboardPrinter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "IntervalSampler",
    "JsonlSink",
    "METRICS_ENV",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "ObservabilityServer",
    "Profiler",
    "SLOEngine",
    "SLOSpec",
    "SpanTracer",
    "ThreadWindow",
    "TimeSeries",
    "WindowSample",
    "active_profiler",
    "analyze_bundle",
    "attach_core_observers",
    "attribute_capture",
    "disable_profiling",
    "enable_profiling",
    "get_registry",
    "load_bundle",
    "parse_openmetrics",
    "parse_slo",
    "pipeline_trace",
    "publish_fleet_metrics",
    "publish_fleet_window",
    "render_dashboard",
    "render_openmetrics",
    "set_registry",
    "validate_openmetrics",
]
