"""Per-track occupancy: busy + stall + idle fractions sum to 1 on every
chained track of every traced configuration, queue-only tracks (the
router's dispatch gate) are reported as overlap-tolerant aggregates, and
the team lanes a pool spun up are counted from its instants.
"""

from __future__ import annotations

import pytest
from test_identity import CONFIGS, make_items

from repro.net.team_lanes import TeamLanePool
from repro.obs import (
    QueueWait,
    TraceError,
    TraceRecorder,
    utilization_report,
)
from repro.obs.utilization import POOL_TRACK, TrackUtilization

IDS = [label for label, _, _ in CONFIGS]


def record(build, mix):
    tracer = TraceRecorder()
    build(tracer).run_workload(make_items(mix))
    return tracer


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_fractions_sum_to_one_on_every_track(label, mix, build):
    report = utilization_report(record(build, mix)).check()
    assert report.makespan > 0
    assert report.tracks, "no chained track carried any occupancy"
    for track in report.tracks:
        fractions = track.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-9)
        assert fractions["busy"] >= 0
        assert fractions["stall"] >= 0
        assert fractions["idle"] >= -1e-9
    # Something actually executed.
    assert any(t.busy_time > 0 for t in report.tracks)


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_every_track_reads_the_recorders_totals(label, mix, build):
    """The report is a view of the span list and nothing else: each
    chained track — as a fractions row or as a queue, in first-appearance
    order — carries exactly the recorder's busy and stall totals and is
    judged against the recorder's makespan."""
    tracer = record(build, mix)
    busy, stall = tracer.busy_totals(), tracer.stall_totals()
    report = utilization_report(tracer).check()
    assert report.makespan == tracer.makespan
    rows = {entry.track: entry for entry in report.tracks}
    queues = {entry.track: entry for entry in report.queues}
    assert [t for t in busy if t in rows] == [t.track for t in report.tracks]
    assert set(rows) | set(queues) == set(busy)
    for track, entry in rows.items():
        assert entry.extent == tracer.makespan
        assert entry.busy == busy[track]
        assert entry.stalls == stall.get(track, {})
    for track, queue in queues.items():
        assert sum(busy[track].values()) == 0
        assert queue.waits == stall[track]


def test_router_dispatch_gate_is_a_queue_not_a_timeline():
    # Only overlapped rounds ever queue at the gate: with one round in
    # flight every unit dispatches the instant it is classified.
    mix, build = next(
        (mix, build) for label, mix, build in CONFIGS if label == "cluster_d3"
    )
    report = utilization_report(record(build, mix)).check()
    queues = {queue.track: queue for queue in report.queues}
    assert queues, "the cluster router recorded no dispatch-gate waits"
    for queue in queues.values():
        assert isinstance(queue, QueueWait)
        assert queue.total > 0
        # The waits belong to concurrently queued units: their sum may
        # exceed the makespan, which is exactly why they are not
        # busy/stall/idle fractions.
    # No fractions track duplicates a queue track.
    assert not set(queues) & {t.track for t in report.tracks}
    # The queue aggregate renders with its overlap disclaimer.
    assert any("overlaps allowed" in line for line in report.render())


def test_zero_extent_track_has_zero_fractions():
    track = TrackUtilization(
        track="t", extent=0.0, busy={}, stalls={}
    )
    assert track.fractions() == {"busy": 0.0, "stall": 0.0, "idle": 0.0}


def test_over_committed_track_is_rejected():
    tracer = TraceRecorder()
    tracer.span("lane.0", "op", "execute", 0.0, 2.0)
    # A double-billing site: a second op on the same lane at the same time.
    tracer.span("lane.0", "op", "execute", 0.0, 2.0)
    with pytest.raises(TraceError, match="over-committed"):
        utilization_report(tracer).check()


def test_engine_team_lanes_report_their_spinups():
    mix, build = next(
        (mix, build)
        for label, mix, build in CONFIGS
        if label == "engine"
    )
    tracer = record(build, mix)
    report = utilization_report(tracer).check()
    assert report.lanes > 0
    assert report.as_dict()["lanes"] == report.lanes
    assert any("team lanes:" in line for line in report.render())


def test_pool_spinups_are_counted_from_its_instants():
    """A pool driven directly: one spin-up instant per distinct team on
    the pool track, naming only the team; a repeat team records nothing,
    and the report's count is the pool's own."""
    tracer = TraceRecorder()
    pool = TeamLanePool(seed=3)
    pool.tracer = tracer
    pool.order([((0, 1), ["a", "b"])])
    pool.order([((2, 3), ["c"])])
    pool.order([((0, 1), ["d"]), ((4, 5), ["e"])])
    assert utilization_report(tracer).lanes == pool.lanes_created == 3
    spinups = [i for i in tracer.instants if i.track == POOL_TRACK]
    assert [i.name for i in spinups] == ["lane spin-up"] * 3
    assert [i.args for i in spinups] == [
        {"team": "0-1"},
        {"team": "2-3"},
        {"team": "4-5"},
    ]


def test_no_pool_counts_no_lanes():
    tracer = TraceRecorder()
    tracer.span("lane.0", "op", "execute", 0.0, 1.0)
    report = utilization_report(tracer)
    assert report.lanes == 0
    assert not any("team lanes:" in line for line in report.render())
