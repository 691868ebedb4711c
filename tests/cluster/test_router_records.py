"""The router's protocol records, and the one rule its timers ask by.

``_Unit``'s lifecycle methods take ``now`` and return what the router
bills; they need no router, no network and no clock.  ``Router._ask``
needs a node to answer, so its tests drive a small cluster's router by
hand, and the detector's claims end to end: a slow unit is never
retransmitted, a lost message is retransmitted at the first ask, timers
share one ping, and a restarted node's empty answer replays its units.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import TokenCluster
from repro.cluster.routing import _Unit
from repro.config import ClusterConfig, FaultConfig
from repro.engine import PendingOp
from repro.engine.conflict_graph import ComponentDAG
from repro.net.network import Message
from repro.objects.erc20 import ERC20TokenType
from repro.objects.footprint import EMPTY_FOOTPRINT
from repro.spec.operation import op
from repro.workloads import WorkloadItem

TIMEOUT = 10.0
ACCOUNTS = 16


def a_cluster(fault: FaultConfig | None = None, **fields) -> TokenCluster:
    config = dict(num_nodes=2, lanes_per_node=1, result_timeout=TIMEOUT)
    return TokenCluster(
        ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS),
        ClusterConfig(**{**config, **fields}, fault=fault or FaultConfig()),
    )


def advance(cluster: TokenCluster, to: float) -> None:
    """Deliver everything due by ``to``, and stop the clock there."""
    cluster.simulator.run(until=to)
    cluster.simulator.now = to


def pings(cluster: TokenCluster) -> int:
    return cluster.network.stats.by_type.get("cl_ping", 0)


# -- the ask rule ------------------------------------------------------------


def test_the_first_ask_pings_and_later_asks_wait_for_its_answer():
    cluster = a_cluster()
    router = cluster.router
    advance(cluster, 5.0)
    assert router._ask(0, 5.0) == "pending"
    assert router._peers[0].probe == 5.0
    assert router._ask(0, 5.0) == "pending"
    assert router._ask(0, 6.0) == "pending"  # another timer: no second ping
    assert pings(cluster) == 1


def test_a_pong_after_since_says_alive_to_every_timer_that_asked_before_it():
    cluster = a_cluster()
    router, peer = cluster.router, cluster.router._peers[0]
    advance(cluster, 5.0)
    router._ask(0, 5.0)
    advance(cluster, 10.0)  # ping and pong are each at most 1.5 in flight
    assert peer.probe is None and 5.0 < peer.last_pong < 10.0
    assert peer.holds == frozenset()  # an idle node runs nothing
    assert router._ask(0, 5.0) == "alive"
    # A timer that started asking after the answer needs its own ...
    assert router._ask(0, 10.0) == "pending" and peer.probe == 10.0
    assert pings(cluster) == 2
    # ... and the earlier asker keeps the answer it already had.
    assert router._ask(0, 5.0) == "alive"


def test_a_ping_unanswered_for_a_full_timeout_says_dead():
    cluster = a_cluster(FaultConfig(enabled=True, crashes=((1, 1.0),)))
    router = cluster.router
    advance(cluster, 2.0)
    assert router._ask(1, 2.0) == "pending"
    advance(cluster, 2.0 + TIMEOUT - 0.1)
    assert router._ask(1, 2.0) == "pending"
    advance(cluster, 2.0 + TIMEOUT)
    assert router._ask(1, 2.0) == "dead"
    # Dead is a verdict on the ping, whoever asks.
    assert router._ask(1, 2.0 + TIMEOUT) == "dead"
    assert pings(cluster) == 1


def test_a_pong_names_the_running_unit_and_not_the_one_parked_on_a_grant():
    """The node is handed two units of one round: the first needs no
    lease and runs at once, the second waits for a grant that never
    comes.  Its pong names only the first — a parked unit is not
    running, so the router would retransmit it."""
    cluster = a_cluster()
    router, node = cluster.router, cluster.nodes[0]
    peer = router._peers[0]
    ops = [PendingOp(seq, 0, op("transfer", 1, 1)) for seq in range(20)]
    for unit, leases in ((0, 0), (1, 1)):
        body = dict(round=0, unit=unit, dag=None, leases=leases, sync_ready=0.0)
        body["ops"] = ops[10 * unit : 10 * unit + 10]
        node.handle_cl_run(Message("cl_run", router.node_id, 0, body))
    running = node._units[(0, 0)].timer
    assert running is not None and node._units[(0, 1)].timer is None
    assert router._ask(0, 0.0) == "pending"
    advance(cluster, 4.0)
    assert running.active and running.time > 4.0  # still running
    assert peer.holds == frozenset({(0, 0)})
    assert router._ask(0, 0.0) == "alive"


# -- the detector end to end --------------------------------------------------


def assert_serial(cluster: TokenCluster, items) -> None:
    token = cluster.object_type
    responses = [cluster.router.responses[i] for i in range(len(items))]
    assert (cluster.state, responses) == token.run(
        [(item.pid, item.operation) for item in items]
    )
    assert cluster.stats.ops_lost == 0


def test_a_unit_running_longer_than_the_timeout_is_slow_not_dead():
    """One long conflict chain on one lane outlives several timeouts
    while its node sends nothing.  Asked, the node names the unit, so
    the router waits another timeout each time — it never retransmits."""
    cluster = a_cluster()
    items = [WorkloadItem(0, op("transfer", 1, 1)) for _ in range(40)]
    stats = cluster.run_workload(items)[2]
    assert_serial(cluster, items)
    assert stats.makespan > 3 * TIMEOUT
    assert pings(cluster) >= 2
    assert stats.ops_replayed == 0 and stats.revocations == 0


def two_chains_on(cluster: TokenCluster, node: int) -> list[WorkloadItem]:
    """Two independent two-op chains anchored on ``node``: two units."""
    first, second, sink = [
        a for a in range(ACCOUNTS) if cluster.shard_map.owner_of(a) == node
    ][:3]
    return [
        WorkloadItem(pid, op("transfer", sink, 1))
        for pid in (first, first, second, second)
    ]


def test_a_run_lost_on_a_live_node_is_retransmitted_at_the_first_ask():
    """Every ``cl_run`` of the one round is lost.  Each node is pinged
    once; it answers without the units, and each unit is replayed when
    that answer is read — no second ask, no death."""
    cluster = a_cluster(
        FaultConfig(enabled=True, drops=(("cl_run", 1.0, 0.0, 0.5),)),
        pipeline_depth=1,
    )
    items = two_chains_on(cluster, 0) + two_chains_on(cluster, 1)
    stats = cluster.run_workload(items)[2]
    assert_serial(cluster, items)
    assert stats.round_log[0].nodes_used == 2 and stats.rounds == 1
    assert pings(cluster) == 2
    assert stats.ops_replayed == len(items)
    assert stats.revocations == 0 and stats.stale_messages == 0


def test_two_timers_asking_one_node_read_the_same_pong():
    """Both results of two units on one node are lost: the first timer
    to fire pings, the second finds the ping out and waits for the same
    answer, and both units are retransmitted off that one pong."""
    cluster = a_cluster(
        FaultConfig(enabled=True, drops=(("cl_result", 1.0, 0.0, 8.0),)),
        pipeline_depth=1,
    )
    items = two_chains_on(cluster, 0)
    stats = cluster.run_workload(items)[2]
    assert_serial(cluster, items)
    assert stats.units_dispatched == 2
    assert pings(cluster) == 1
    assert stats.ops_replayed == len(items) and stats.revocations == 0


def test_a_restarted_nodes_empty_pong_replays_the_unit():
    """The node bounces inside one event, so nothing tells the router:
    its ping reaches the new incarnation, which runs nothing, and the
    empty answer is what replays the unit the crash erased."""
    cluster = a_cluster()
    items = [WorkloadItem(0, op("transfer", 1, 1)) for _ in range(40)]
    owner = cluster.shard_map.owner_of(0)
    node = cluster.nodes[owner]

    def bounce() -> None:
        node.crash()
        node.restart(set(cluster.shard_map.shards_of_node(owner)))

    cluster.simulator.schedule_at(5.0, bounce)
    stats = cluster.run_workload(items)[2]
    assert_serial(cluster, items)
    assert stats.ops_replayed == len(items)
    assert stats.rejoins == 0 and stats.revocations == 0


# -- the unit lifecycle ------------------------------------------------------


class Timer:
    """What the simulator hands back for a scheduled callback."""

    def __init__(self) -> None:
        self.cancelled = 0

    def cancel(self) -> None:
        self.cancelled += 1


def a_unit(**fields) -> _Unit:
    ops = tuple(PendingOp(seq, 0, op("transfer", 1, 1)) for seq in (4, 7))
    defaults = dict(
        ops=ops,
        contended=True,
        sync_delay=2.5,
        leases=2,
        round=3,
        node=1,
        uidx=0,
        summary=EMPTY_FOOTPRINT,
        dag=ComponentDAG(((), (0,)), (2, 1), 2, 1),
    )
    return _Unit(**{**defaults, **fields})


def test_a_gate_stall_is_returned_once_and_cleared_by_dispatch():
    unit = a_unit()
    unit.block(5.0)
    unit.block(6.0)  # only the first refusal starts the clock
    assert unit.blocked_since == 5.0 and not unit.dispatched
    assert unit.dispatch(9.0) == (4.0, 0.0)
    assert unit.dispatched and unit.blocked_since is None
    # A unit the gate never refused stalls for nothing.
    assert a_unit().dispatch(9.0) == (0.0, 0.0)


def test_a_replay_incarnation_bills_recovery_never_frontier_stall():
    """The trace charges a delayed dispatch to ``recovery`` whenever the
    recovery stall is positive, and may: a replay's gate stall — requeue
    restarts that clock — lies inside its recovery window."""
    unit = a_unit()
    unit.block(1.0)
    unit.dispatch(2.0)
    unit.requeue(target=2, uidx=1 << 20, now=10.0)
    assert unit.blocked_since is None  # the original's stall was billed
    unit.block(12.0)
    gate_stall, recovery_stall = unit.dispatch(15.0)
    assert (gate_stall, recovery_stall) == (3.0, 5.0)
    assert 0 <= gate_stall <= recovery_stall
    # ... and the recovery stall too is reported once.
    unit.requeue(target=0, uidx=(1 << 20) + 1, now=20.0)
    assert unit.dispatch(20.0) == (0.0, 0.0)


def test_settle_is_idempotent_and_stops_its_timer_once():
    unit, timer = a_unit(), Timer()
    unit.dispatch(0.0)
    unit.watch(timer)
    unit.since = 12.0  # the timer fired and is asking
    unit.settle(done=True)
    assert unit.done and unit.timer is None and unit.since is None
    assert timer.cancelled == 1
    unit.settle(done=True)
    unit.settle(done=False)  # a straggler cannot undo it
    assert unit.done and timer.cancelled == 1
    # Without recovery nothing is armed.
    bare = a_unit()
    bare.dispatch(0.0)
    bare.settle(done=True)
    assert bare.done and bare.timer is None


def test_requeue_keeps_the_plan_and_drops_the_leases():
    unit = a_unit()
    summary, dag = unit.summary, unit.dag
    unit.dispatch(1.0)
    unit.settle(done=False)
    unit.requeue(target=2, uidx=1 << 20, now=4.0)
    assert (unit.round, unit.node, unit.uidx) == (3, 2, 1 << 20)
    assert unit.leases == 0 and not unit.dispatched and not unit.done
    assert unit.summary is summary and unit.dag is dag
    assert unit.sync_delay == 2.5 and unit.contended
    assert unit.episodes == (1,)
    # Failing over the same node again joins its episode once.
    unit.requeue(target=1, uidx=(1 << 20) + 1, now=5.0)
    unit.requeue(target=2, uidx=(1 << 20) + 2, now=6.0)
    assert unit.episodes == (1, 2)


EVENTS = st.lists(
    st.sampled_from(["block", "dispatch", "result", "fail", "ask", "rearm"]),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(events=EVENTS)
def test_every_dispatched_unit_ends_done_or_requeued(events):
    """Drive one record the way the router does (gate → dispatch, watch
    → ask, re-arm → result | fail-over → requeue) over arbitrary
    interleavings: no timer outlives its incarnation, no incarnation
    inherits an earlier one's question, and a dispatched unit is never
    left in limbo."""
    unit = a_unit()
    timers: list[Timer] = []
    now, replays = 0.0, 0
    for event in events:
        now += 1.0
        if unit.done:
            break
        if event == "block" and not unit.dispatched:
            unit.block(now)
        elif event == "dispatch" and not unit.dispatched:
            gate_stall, recovery_stall = unit.dispatch(now)
            assert gate_stall >= 0 and recovery_stall >= 0
            assert unit.since is None
            timers.append(Timer())
            unit.watch(timers[-1])
        elif event == "ask" and unit.dispatched:
            if unit.since is None:
                unit.since = now
        elif event == "rearm" and unit.dispatched:
            timers.append(Timer())  # the old one fired: it is consumed
            unit.watch(timers[-1])
        elif event == "result" and unit.dispatched:
            unit.settle(done=True)
        elif event == "fail":
            unit.settle(done=False)
            replays += 1
            unit.requeue(target=replays % 3, uidx=(1 << 20) + replays, now=now)
    if unit.dispatched and not unit.done:
        # Quiescence: the router settles or replays whatever it sent.
        unit.settle(done=True)
    assert unit.timer is None and unit.since is None
    assert unit.done or not unit.dispatched
    assert all(timer.cancelled <= 1 for timer in timers)
    assert unit.leases in (0, 2) and (unit.leases == 2) == (replays == 0)
