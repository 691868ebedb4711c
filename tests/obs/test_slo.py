"""SLOMonitor: per-window p99 verdicts, budget burn, breach instants.

The scenario that matters: a run whose early windows are healthy and
whose later windows carry an injected latency regression.  The monitor
must localize the breach to the regressed windows, burn through the
error budget there (flipping the headline ``met`` verdict), and drop a
breach instant into the trace at each offending window's end.
"""

from __future__ import annotations

import pytest

from repro.obs import SLOError, SLOMonitor, TimeSeries, TraceRecorder


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
    return TimeSeries.from_trace(tracer, width).check()


def test_monitor_validates_its_objective():
    with pytest.raises(SLOError):
        SLOMonitor(target_p99=0.0)
    with pytest.raises(SLOError):
        SLOMonitor(target_p99=1.0, horizon=0)
    with pytest.raises(SLOError):
        SLOMonitor(target_p99=1.0, budget=0.0)
    with pytest.raises(SLOError):
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
        series.window_bounds(index)[1] for index in report.breaches
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
    series = TimeSeries.from_trace(tracer, 100.0).check()
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
