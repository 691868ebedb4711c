"""Open-loop arrivals: generators, the stream driver, and its identity.

The load-bearing contract is the last one: a stream whose arrivals all
land at virtual time zero is the closed loop in disguise, so driving it
must reproduce ``run_workload`` — state, responses, and stats — bit for
bit on every layer the driver supports.
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.errors import StreamError
from repro.obs import TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    Arrival,
    StreamDriver,
    TokenWorkloadGenerator,
    WorkloadMix,
    onoff_arrivals,
    poisson_arrivals,
)

ACCOUNTS = 32
OPS = 160


def make_items(ops: int = OPS):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=13, mix=WorkloadMix()
    ).generate(ops)


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------


def test_poisson_arrivals_are_seeded_sorted_and_complete():
    items = make_items(64)
    first = poisson_arrivals(items, rate=2.0, seed=5)
    again = poisson_arrivals(items, rate=2.0, seed=5)
    other = poisson_arrivals(items, rate=2.0, seed=6)
    assert first == again
    assert first != other
    assert [a.item for a in first] == items
    times = [a.time for a in first]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_poisson_mean_gap_tracks_the_rate():
    items = make_items(400)
    arrivals = poisson_arrivals(items, rate=4.0, seed=1)
    mean_gap = arrivals[-1].time / len(arrivals)
    assert mean_gap == pytest.approx(1 / 4.0, rel=0.25)


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(StreamError):
        poisson_arrivals(make_items(4), rate=0.0)


def test_onoff_arrivals_respect_the_burst_windows():
    items = make_items(200)
    burst_time, idle_time = 5.0, 20.0
    arrivals = onoff_arrivals(
        items,
        burst_rate=8.0,
        burst_time=burst_time,
        idle_time=idle_time,
        seed=3,
    )
    period = burst_time + idle_time
    assert [a.item for a in arrivals] == items
    times = [a.time for a in arrivals]
    assert times == sorted(times)
    for t in times:
        assert t % period < burst_time, f"arrival {t} inside a silence"


def test_onoff_rejects_bad_shape():
    with pytest.raises(StreamError):
        onoff_arrivals(make_items(4), burst_rate=0, burst_time=1, idle_time=1)
    with pytest.raises(StreamError):
        onoff_arrivals(make_items(4), burst_rate=1, burst_time=0, idle_time=1)
    with pytest.raises(StreamError):
        onoff_arrivals(
            make_items(4), burst_rate=1, burst_time=1, idle_time=-1
        )


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

TARGETS = [
    (
        "engine",
        lambda tracer, capacity=None: PipelinedExecutor(
            make_token(),
            EngineConfig(num_lanes=4, seed=13, mempool_capacity=capacity),
            tracer=tracer,
        ),
    ),
    (
        "pipelined",
        lambda tracer, capacity=None: PipelinedExecutor(
            make_token(),
            EngineConfig(
                num_lanes=4,
                pipeline_depth=3,
                seed=13,
                mempool_capacity=capacity,
            ),
            tracer=tracer,
        ),
    ),
    (
        "cluster",
        lambda tracer, capacity=None: TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=3,
                lanes_per_node=4,
                seed=13,
                mempool_capacity=capacity,
            ),
            tracer=tracer,
        ),
    ),
    (
        "cluster_pipelined",
        lambda tracer, capacity=None: TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=3,
                lanes_per_node=4,
                seed=13,
                pipeline_depth=3,
                mempool_capacity=capacity,
            ),
            tracer=tracer,
        ),
    ),
]
TARGET_IDS = [label for label, _ in TARGETS]


def test_driver_requires_a_tracer():
    with pytest.raises(StreamError):
        StreamDriver(PipelinedExecutor(make_token()), [])


def test_driver_rejects_negative_arrival_times():
    item = make_items(1)[0]
    with pytest.raises(StreamError):
        StreamDriver(
            PipelinedExecutor(make_token(), tracer=TraceRecorder()),
            [Arrival(time=-1.0, item=item)],
        )


@pytest.mark.parametrize("label,build", TARGETS, ids=TARGET_IDS)
def test_arrivals_at_time_zero_reproduce_the_closed_loop(label, build):
    """All-at-zero arrivals are run_workload in disguise — same state,
    same responses, same stats, same makespan, bit for bit."""
    items = make_items()
    closed_state, closed_responses, closed_stats = build(
        TraceRecorder()
    ).run_workload(items)

    target = build(TraceRecorder())
    arrivals = [Arrival(time=0.0, item=item) for item in items]
    report = StreamDriver(target, arrivals).run()

    assert report.offered == len(items)
    assert len(report.admitted) == len(items)
    assert report.dropped == 0
    assert target.state == closed_state
    assert target.responses_in_order() == closed_responses
    assert report.stats.as_dict() == closed_stats.as_dict()


@pytest.mark.parametrize("label,build", TARGETS, ids=TARGET_IDS)
def test_driven_run_commits_everything_and_stamps_latency(label, build):
    target = build(TraceRecorder())
    arrivals = poisson_arrivals(make_items(), rate=1.5, seed=13)
    report = StreamDriver(target, arrivals).run()

    assert report.dropped == 0
    assert report.makespan >= arrivals[-1].time
    metrics = target.tracer.metrics
    assert metrics.counter("ops_committed").value == len(report.admitted)
    latency = metrics.histogram("op_latency")
    assert latency.count == len(report.admitted)
    assert latency.min >= 0.0
    # Commit happens at or after arrival, so the mean latency is real
    # queueing + execution time, not a clock artifact.
    assert latency.mean > 0.0


@pytest.mark.parametrize("label,build", TARGETS, ids=TARGET_IDS)
def test_bounded_mempool_drops_stay_open_loop(label, build):
    """A bounded mempool sheds the burst's tail: the driver counts the
    drops and keeps going — it never blocks waiting for room."""
    capacity = 16
    target = build(TraceRecorder(), capacity=capacity)
    items = make_items(3 * capacity)
    arrivals = [Arrival(time=0.0, item=item) for item in items]
    report = StreamDriver(target, arrivals).run()

    assert report.dropped == len(items) - capacity
    assert len(report.admitted) == capacity
    assert (
        target.tracer.metrics.counter("ops_committed").value == capacity
    )


def test_late_arrivals_idle_the_clock_forward():
    """A lone arrival far in the future: the driver advances the idle
    clock to it rather than spinning, and latency is measured from the
    arrival instant, not from zero."""
    tracer = TraceRecorder()
    engine = PipelinedExecutor(
        make_token(), EngineConfig(num_lanes=2), tracer=tracer
    )
    item = make_items(1)[0]
    report = StreamDriver(
        engine, [Arrival(time=100.0, item=item)]
    ).run()
    assert report.makespan >= 100.0
    latency = tracer.metrics.histogram("op_latency")
    assert latency.count == 1
    assert latency.max < 100.0  # measured from arrival, not from zero


def test_unsorted_arrivals_are_released_in_time_order():
    tracer = TraceRecorder()
    engine = PipelinedExecutor(
        make_token(), EngineConfig(num_lanes=2), tracer=tracer
    )
    items = make_items(8)
    arrivals = [
        Arrival(time=float(8 - index), item=item)
        for index, item in enumerate(items)
    ]
    report = StreamDriver(engine, arrivals).run()
    assert len(report.admitted) == len(items)
    # The first-submitted op (lowest seq) is the earliest arrival — the
    # reversed construction order did not leak into admission order.
    earliest = min(arrivals, key=lambda a: a.time)
    assert report.admitted[0].operation == earliest.item.operation
