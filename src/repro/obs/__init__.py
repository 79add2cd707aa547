"""repro.obs — the zero-dependency observability plane.

Three pillars, one handle:

* **Tracing** (:mod:`repro.obs.trace`): nested ``span()`` context managers
  producing a :class:`Trace`, exportable as JSON-lines or the Chrome
  ``chrome://tracing`` / Perfetto trace-event format;
* **Metrics** (:mod:`repro.obs.metrics`): a thread-safe registry of
  counters and histograms snapshotted into report metadata;
* **Profiling** (:mod:`repro.obs.profile`): opt-in RSS sampling per span
  plus ``format_table``/``format_flame`` text renderers.

Everything hangs off one :class:`Telemetry` object::

    telemetry = Telemetry.on()
    report = session.with_telemetry(telemetry).run()
    telemetry.trace().write_chrome("trace.json")   # open in ui.perfetto.dev
    print(format_table(telemetry.trace()))

The default everywhere is the shared, falsy :data:`NULL_TELEMETRY`: with it,
instrumented code records nothing, reports stay byte-identical to their
un-instrumented output, and both engine backends remain bit-identical.

Counter taxonomy (prefix per plane): ``cache.*`` result-cache I/O,
``executor.*`` runtime dispatch (retries, backend fallbacks, sink errors),
``engine.*`` fault-sim kernels, ``atpg.*`` generation, and ``serve.*`` the
service plane — ``serve.jobs_submitted`` / ``serve.jobs_started`` /
``serve.jobs_done`` / ``serve.jobs_failed`` / ``serve.jobs_cancelled`` /
``serve.recovered_jobs`` queue lifecycle, ``serve.remote_requeues``
lost-worker task requeues, ``serve.local_fallbacks`` remote→local dispatch
degradations and ``serve.quota_evictions`` tenant-store pruning.
"""

from repro.obs.metrics import NULL_METRICS, MetricsRegistry, NullMetrics
from repro.obs.profile import format_flame, format_table, rss_kb
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    Telemetry,
    active_metrics,
    active_tracer,
    coerce_telemetry,
    get_telemetry,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Trace, Tracer

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "coerce_telemetry",
    "get_telemetry",
    "active_metrics",
    "active_tracer",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Trace",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "rss_kb",
    "format_table",
    "format_flame",
]
