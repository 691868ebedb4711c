"""Observability for the token-engine simulation stack.

Virtual-time span tracing (:class:`TraceRecorder`, which keeps every
span — each total below is derived from that one list), the counters
and latency histogram it feeds as ops commit (:class:`MetricsRegistry`;
stats aggregates stay plain summaries), Chrome-trace-event export
(:func:`chrome_trace` / :func:`write_chrome_trace`, with lossless
reconstruction via :func:`trace_from_chrome`), exact makespan
attribution (:func:`critical_path_report`), per-track occupancy and
team-lane churn (:func:`utilization_report`), deterministic trace
diffing (:func:`explain_regression`), per-window commit latency folded
from a finished trace (:class:`TimeSeries`) and the p99 SLO scan over
those windows (:class:`SLOMonitor`).  Attach a recorder via the
``tracer=`` parameter of :class:`repro.engine.PipelinedExecutor` or
:class:`repro.cluster.TokenCluster`; with no tracer every
instrumentation site is a no-op.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.obs.diff": (
        "CategoryDelta",
        "RegressionExplanation",
        "RunProfile",
        "StageDelta",
        "TrackDelta",
        "diff_profiles",
        "explain_regression",
        "profile_document",
        "profile_tracer",
    ),
    "repro.obs.export": (
        "TraceExportError",
        "chrome_trace",
        "trace_from_chrome",
        "validate_chrome_trace",
        "write_chrome_trace",
    ),
    "repro.obs.metrics": (
        "Counter",
        "Histogram",
        "MetricsError",
        "MetricsRegistry",
    ),
    "repro.obs.report": (
        "AttributionReport",
        "PathSegment",
        "critical_path_report",
    ),
    "repro.obs.series": (
        "SLOMonitor", "SLOReport", "SLOWindow", "SeriesError", "TimeSeries"
    ),
    "repro.obs.trace": (
        "CATEGORIES",
        "LIFECYCLE_STAGES",
        "Instant",
        "Span",
        "TraceError",
        "TraceRecorder",
    ),
    "repro.obs.utilization": (
        "QueueWait",
        "TrackUtilization",
        "UtilizationReport",
        "utilization_report",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
