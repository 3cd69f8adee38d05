"""Run observability: metrics registry and structured run traces.

An always-available, zero-overhead-when-disabled layer threaded through
every execution path:

* :mod:`repro.obs.metrics` — counters/gauges/timing accumulators engines,
  streaming, the switch fabric, the sweep runner and the result cache
  publish into; disabled by default, enabled by ``--metrics`` or
  :func:`enable_metrics`.
* :mod:`repro.obs.trace` — timestamped NDJSON run-trace events
  (``--trace-out trace.ndjson``) plus the ``repro trace summarize``
  inspector.

The perf trajectory (``repro bench`` and its ``--compare`` gate) lives in
:mod:`repro.bench`, and per-layer wall-time attribution in the benchmark's
traced runs (``perfbench/run.py --trace 1``).

The layer's hard invariant: enabling any of it never touches an RNG stream
and never changes a report — pinned by the differential fuzzer running with
metrics enabled.
"""

from repro.obs.metrics import (
    MetricsRegistry,
    disable_metrics,
    enable_metrics,
    get_metrics,
    render_metrics,
    using_metrics,
)
from repro.obs.trace import (
    TraceWriter,
    emit,
    get_trace,
    read_events,
    render_trace_summary,
    set_trace,
    summarize_trace,
    using_trace,
)

__all__ = [
    "MetricsRegistry",
    "TraceWriter",
    "disable_metrics",
    "emit",
    "enable_metrics",
    "get_metrics",
    "get_trace",
    "read_events",
    "render_metrics",
    "render_trace_summary",
    "set_trace",
    "summarize_trace",
    "using_metrics",
    "using_trace",
]
