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

from repro.obs.diff import (
    CategoryDelta,
    RegressionExplanation,
    RunProfile,
    StageDelta,
    TrackDelta,
    diff_profiles,
    explain_regression,
    profile_document,
    profile_tracer,
)
from repro.obs.export import (
    TraceExportError,
    chrome_trace,
    trace_from_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
)
from repro.obs.report import (
    AttributionReport,
    PathSegment,
    critical_path_report,
)
from repro.obs.series import SeriesError, TimeSeries
from repro.obs.slo import (
    SLOError,
    SLOMonitor,
    SLOReport,
    SLOWindow,
)
from repro.obs.trace import (
    CATEGORIES,
    LIFECYCLE_STAGES,
    Instant,
    Span,
    TraceError,
    TraceRecorder,
)
from repro.obs.utilization import (
    LaneChurn,
    QueueWait,
    TrackUtilization,
    UtilizationReport,
    lane_churn,
    utilization_report,
)

__all__ = [
    "AttributionReport",
    "CATEGORIES",
    "CategoryDelta",
    "Counter",
    "Gauge",
    "Histogram",
    "Instant",
    "LIFECYCLE_STAGES",
    "LaneChurn",
    "MetricsError",
    "MetricsRegistry",
    "PathSegment",
    "QueueWait",
    "RegressionExplanation",
    "RunProfile",
    "SLOError",
    "SLOMonitor",
    "SLOReport",
    "SLOWindow",
    "SeriesError",
    "Span",
    "StageDelta",
    "TimeSeries",
    "TraceError",
    "TraceExportError",
    "TraceRecorder",
    "TrackDelta",
    "TrackUtilization",
    "UtilizationReport",
    "chrome_trace",
    "critical_path_report",
    "diff_profiles",
    "explain_regression",
    "lane_churn",
    "profile_document",
    "profile_tracer",
    "trace_from_chrome",
    "utilization_report",
    "validate_chrome_trace",
    "write_chrome_trace",
]
