"""TimeSeries: windowing a finished trace, and the conservation law.

The property that matters: summing any windowed quantity over all
windows reproduces the trace's unwindowed total exactly — the op
counters, the latency histogram and ``category_totals()``.  It is
checked here across every traced configuration
the identity suite pins (barrier, DAG, teams, pipelined, and the three
cluster modes), at several window widths, so no scheduling path can
leak samples between windows unnoticed.
"""

from __future__ import annotations

import pytest

from repro.obs import SeriesError, TimeSeries, TraceRecorder
from repro.obs.trace import TraceError

from tests.obs.test_identity import CONFIGS, make_items


def traced(build, mix):
    tracer = TraceRecorder()
    build(tracer).run_workload(make_items(mix))
    return tracer


# ---------------------------------------------------------------------------
# interval_occupancy (the post-hoc windowing primitive)
# ---------------------------------------------------------------------------


def make_traced_engine():
    label, mix, build = CONFIGS[0]
    return traced(build, mix)


def test_interval_occupancy_full_range_is_category_totals():
    tracer = make_traced_engine()
    totals = tracer.category_totals()
    # Stalls tile backward from span starts, so the full cover starts
    # below zero when the earliest span records waits.
    occupancy = tracer.interval_occupancy(
        -tracer.makespan, tracer.makespan
    )
    assert set(occupancy) == set(totals)
    for category, amount in totals.items():
        assert occupancy[category] == pytest.approx(amount, rel=1e-9)


def test_interval_occupancy_partition_is_additive():
    tracer = make_traced_engine()
    lo, hi = -tracer.makespan, tracer.makespan
    cuts = [lo + (hi - lo) * index / 7 for index in range(8)]
    summed: dict[str, float] = {}
    for t0, t1 in zip(cuts, cuts[1:]):
        for category, amount in tracer.interval_occupancy(t0, t1).items():
            summed[category] = summed.get(category, 0.0) + amount
    for category, amount in tracer.category_totals().items():
        assert summed[category] == pytest.approx(amount, rel=1e-9)


def test_interval_occupancy_empty_and_disjoint_intervals():
    tracer = make_traced_engine()
    assert tracer.interval_occupancy(5.0, 5.0) == {}
    after = tracer.makespan + 10.0
    assert tracer.interval_occupancy(after, after + 50.0) == {}


def test_interval_occupancy_rejects_reversed_interval():
    tracer = make_traced_engine()
    with pytest.raises(TraceError):
        tracer.interval_occupancy(10.0, 5.0)


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
    series.check()  # raises SeriesError on any broken sum
    assert series.window_count >= 1
    committed = series.counter_series("ops_committed")
    assert sum(committed) == tracer.metrics.counter(
        "ops_committed"
    ).value
    assert len(committed) == series.window_count


# ---------------------------------------------------------------------------
# windowing mechanics and misuse
# ---------------------------------------------------------------------------


def test_window_bounds_and_counter_buckets():
    tracer = TraceRecorder()
    for seq, ts in enumerate((1.0, 4.9, 5.0, 12.0)):
        tracer.op_submit(seq, ts)
    series = TimeSeries.from_trace(tracer, 5.0)
    assert series.window_count == 3
    assert series.counter_series("ops_submitted") == [2.0, 1.0, 1.0]
    assert series.window_bounds(1) == (5.0, 10.0)
    series.check()


def test_series_misuse_raises():
    tracer = make_traced_engine()
    with pytest.raises(SeriesError):
        TimeSeries.from_trace(tracer, 0.0)
    early = TraceRecorder()
    early.op_submit(0, -1.0)  # precedes the origin
    with pytest.raises(SeriesError):
        TimeSeries.from_trace(early, 1.0)


def test_as_dict_round_trips_shapes_and_totals():
    tracer = make_traced_engine()
    series = TimeSeries.from_trace(tracer, max(1.0, tracer.makespan / 6))
    exported = series.as_dict()
    windows = exported["windows"]
    assert windows == series.window_count
    for group in ("counters", "occupancy"):
        for values in exported[group].values():
            assert len(values) == windows
    for summaries in exported["histograms"].values():
        assert len(summaries) == windows
    totals = exported["totals"]
    assert totals["counters"]["ops_committed"] == sum(
        exported["counters"]["ops_committed"]
    )
    assert set(totals["occupancy"]) == set(
        tracer.category_totals()
    )
