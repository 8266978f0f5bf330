"""``repro.telemetry`` — one instrumentation layer for all three runtimes.

The measurement substrate the perf roadmap gates on (see DESIGN.md,
"Telemetry"):

* :mod:`repro.telemetry.registry` — counters / gauges / fixed-bucket
  histograms with O(1) state, rendered as Prometheus text or a JSON
  snapshot;
* :mod:`repro.telemetry.tracing` — sampled per-op lifecycle tracing
  (submit → wave join → valuation → route hops → DONE) with Chrome
  trace-event export and a per-host flight recorder;
* :mod:`repro.telemetry.profiling` — the live ``/profile`` cProfile
  capture;
* :mod:`repro.telemetry.export` — Metrics → Prometheus adapter, trace
  merge + format validation.

Layering: this package imports nothing from ``repro.net`` or
``repro.sim`` (duck-typing where it must read their objects), so every
layer — simulators, the TCP runtime, and the ops plane — can import it
freely without cycles.
"""

from repro.telemetry.export import (
    merge_traces,
    render_run_metrics,
    validate_chrome_trace,
)
from repro.telemetry.profiling import capture_profile
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.tracing import PHASES, Tracer, trace_sampled

__all__ = [
    "DEFAULT_BUCKETS",
    "PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "capture_profile",
    "merge_traces",
    "render_run_metrics",
    "trace_sampled",
    "validate_chrome_trace",
]
