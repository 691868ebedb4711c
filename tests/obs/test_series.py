"""TimeSeries and SLOMonitor: per-window commit latency and its verdict.

The property that matters for the series: each committed op lands in
exactly one window, so the window counts sum to the recorder's
``ops_committed`` and the window histograms sum to its ``op_latency``
histogram.  It is checked here across every traced configuration the
identity suite pins (barrier, DAG, teams, pipelined, and the three
cluster modes), at several window widths, so no scheduling path can
leak a commit between windows unnoticed.

The scenario that matters for the monitor: a run whose early windows are
healthy and whose later windows carry an injected latency regression.
The monitor must localize the breach to the regressed windows, burn
through the error budget there (flipping the headline ``met`` verdict),
and drop a breach instant into the trace at each offending window's end.
"""

from __future__ import annotations

import pytest

from repro.obs import SeriesError, SLOMonitor, TimeSeries, TraceRecorder

from tests.obs.test_identity import CONFIGS, traced


# ---------------------------------------------------------------------------
# the conservation property, across every traced configuration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "label,mix,build", CONFIGS, ids=[label for label, _, _ in CONFIGS]
)
@pytest.mark.parametrize("fraction", [1 / 3, 1 / 7, 1 / 16])
def test_post_hoc_series_conserve_every_total(label, mix, build, fraction):
    tracer = traced(build, mix)
    width = max(1e-3, tracer.makespan * fraction)
    series = TimeSeries.from_trace(tracer, width)
    assert series.window_count >= 1
    committed = series.committed()
    assert len(committed) == series.window_count
    assert sum(committed) == tracer.metrics.counter("ops_committed").value
    windows = [h for h in series.latency if h is not None]
    source = tracer.metrics.histogram("op_latency")
    assert sum(h.count for h in windows) == source.count
    assert sum(h.total for h in windows) == pytest.approx(
        source.total, rel=1e-9
    )


# ---------------------------------------------------------------------------
# windowing mechanics and misuse
# ---------------------------------------------------------------------------


def test_window_bounds_and_counter_buckets():
    tracer = TraceRecorder()
    for seq, ts in enumerate((1.0, 4.9, 5.0, 12.0)):
        tracer.op_submit(seq, ts - 1.0 - seq)
        tracer.op_commit(seq, ts)
    series = TimeSeries.from_trace(tracer, 5.0)
    assert series.window_count == 3
    assert series.committed() == [2.0, 1.0, 1.0]
    assert series.percentile(1.0) == [2.0, 3.0, 4.0]
    report = SLOMonitor(target_p99=10.0).scan(series)
    window = report.windows[1]
    assert (window.start, window.end) == (5.0, 10.0)


def test_series_misuse_raises():
    tracer = TraceRecorder()
    with pytest.raises(SeriesError):
        TimeSeries.from_trace(tracer, 0.0)
    with pytest.raises(SeriesError):
        TimeSeries.from_trace(tracer, -1.0)


def test_ops_without_a_commit_are_not_filed():
    """Only a submit-to-commit lifecycle has a latency: an op still in
    flight, or one whose submit was never recorded, files nothing."""
    tracer = TraceRecorder()
    tracer.op_submit(0, 0.0)
    tracer.op_commit(0, 2.0)
    tracer.op_submit(1, 1.0)
    tracer.op_commit(2, 3.0)
    series = TimeSeries.from_trace(tracer, 5.0)
    assert series.committed() == [1.0]
    assert series.percentile(1.0) == [2.0]


def test_a_whole_number_of_widths_opens_no_trailing_window():
    """Three chained spans of width 0.1 end at 0.30000000000000004; the
    count still covers three windows, not a fourth, empty one."""
    tracer = TraceRecorder()
    end = 0.0
    for _ in range(3):
        tracer.span("lane.0", "op", "execute", end, end + 0.1)
        end += 0.1
    assert tracer.makespan / 0.1 > 3
    series = TimeSeries.from_trace(tracer, 0.1)
    assert series.window_count == 3
    assert series.committed() == [0.0, 0.0, 0.0]


def test_commit_before_time_zero_raises():
    """A negative commit has no window; it must not wrap into the last."""
    early = TraceRecorder()
    early.op_submit(0, -2.0)
    early.op_commit(0, -1.0)
    with pytest.raises(SeriesError):
        TimeSeries.from_trace(early, 1.0)


# ---------------------------------------------------------------------------
# SLOMonitor: per-window p99 verdicts, budget burn, breach instants
# ---------------------------------------------------------------------------


def series_with_latencies(per_window: list[float], width: float = 10.0):
    """A series whose window ``i`` commits five ops, each of latency
    ``per_window[i]`` virtual-time units, at the window's midpoint."""
    tracer = TraceRecorder()
    seq = 0
    for index, latency in enumerate(per_window):
        commit = index * width + width / 2
        for _ in range(5):
            tracer.op_submit(seq, commit - latency)
            tracer.op_commit(seq, commit)
            seq += 1
    return TimeSeries.from_trace(tracer, width)


def test_monitor_validates_its_objective():
    with pytest.raises(SeriesError):
        SLOMonitor(target_p99=0.0)
    with pytest.raises(SeriesError):
        SLOMonitor(target_p99=1.0, horizon=0)
    with pytest.raises(SeriesError):
        SLOMonitor(target_p99=1.0, budget=0.0)
    with pytest.raises(SeriesError):
        SLOMonitor(target_p99=1.0, budget=1.5)


def test_healthy_run_meets_the_objective():
    series = series_with_latencies([2.0] * 8)
    report = SLOMonitor(target_p99=10.0, horizon=4, budget=0.25).scan(
        series
    )
    assert report.breaches == []
    assert report.max_burn == 0.0
    assert report.met
    assert len(report.windows) == series.window_count


def test_injected_latency_regression_is_detected_and_localized():
    """Healthy for six windows, then the regression: p99 jumps past the
    target and stays there.  The monitor flags exactly those windows,
    burns the budget, and flips the verdict."""
    healthy, regressed = [3.0] * 6, [40.0] * 4
    series = series_with_latencies(healthy + regressed)
    tracer = TraceRecorder()
    monitor = SLOMonitor(target_p99=10.0, horizon=4, budget=0.25)
    report = monitor.scan(series, tracer=tracer)

    assert report.breaches == [6, 7, 8, 9]
    assert not report.met
    # Four breached windows in a horizon of four = breach rate 1.0,
    # burning 4x the budgeted 0.25.
    assert report.max_burn == pytest.approx(4.0)
    # Each breach dropped an instant on the slo track at the window end.
    slo_instants = [i for i in tracer.instants if i.track == "slo"]
    assert [i.ts for i in slo_instants] == [
        (index + 1) * series.width for index in report.breaches
    ]
    for instant in slo_instants:
        assert instant.args["p99"] > instant.args["target"]


def test_empty_windows_cannot_breach():
    """A silent window has no latency evidence: it neither breaches nor
    heals the budget faster than real traffic would."""
    tracer = TraceRecorder()
    tracer.op_submit(0, 0.0)
    tracer.op_commit(0, 50.0)
    # The run goes on for four silent windows after the one commit.
    tracer.span("lane.0", "tail", "execute", 50.0, 450.0)
    series = TimeSeries.from_trace(tracer, 100.0)
    report = SLOMonitor(target_p99=10.0, horizon=2, budget=0.5).scan(
        series
    )
    assert report.breaches == [0]
    assert [w.count for w in report.windows] == [1, 0, 0, 0, 0]
    assert all(not w.breached for w in report.windows[1:])


def test_burn_recovers_once_the_horizon_rolls_past():
    series = series_with_latencies([40.0] + [2.0] * 7, width=100.0)
    report = SLOMonitor(target_p99=10.0, horizon=2, budget=0.5).scan(
        series
    )
    assert report.breaches == [0]
    assert report.windows[0].burn == pytest.approx(2.0)
    assert report.windows[1].burn == pytest.approx(1.0)
    assert report.windows[2].burn == 0.0
    assert not report.met  # the breach already overran a horizon
    assert report.as_dict()["breach_windows"] == 1
