"""Observability for the token-engine simulation stack.

Virtual-time span tracing (:class:`TraceRecorder`, which keeps every
span — each total below is derived from that one list), a unified
metrics registry (:class:`MetricsRegistry`), Chrome-trace-event export
(:func:`chrome_trace` / :func:`write_chrome_trace`, with lossless
reconstruction via :func:`trace_from_chrome`), exact makespan
attribution (:func:`critical_path_report`), per-track occupancy and
team-lane churn (:func:`utilization_report`), deterministic trace
diffing (:func:`explain_regression`), windowed virtual-time series
rebuilt from a finished trace with a conservation guarantee
(:class:`TimeSeries`), and per-window latency SLO scanning
(:class:`SLOMonitor`).  Attach a recorder via the
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
        "Gauge",
        "Histogram",
        "MetricsError",
        "MetricsRegistry",
    ),
    "repro.obs.report": (
        "AttributionReport",
        "PathSegment",
        "critical_path_report",
    ),
    "repro.obs.series": ("SeriesError", "TimeSeries"),
    "repro.obs.slo": ("SLOError", "SLOMonitor", "SLOReport", "SLOWindow"),
    "repro.obs.trace": (
        "CATEGORIES",
        "LIFECYCLE_STAGES",
        "Instant",
        "Span",
        "TraceError",
        "TraceRecorder",
    ),
    "repro.obs.utilization": (
        "LaneChurn",
        "QueueWait",
        "TrackUtilization",
        "UtilizationReport",
        "lane_churn",
        "utilization_report",
    ),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
