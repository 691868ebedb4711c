"""Fail-over under fault schedules: the recovery contract, machine-checked.

Every test here runs a faulted cluster against the object's sequential
specification and demands *serial equivalence*: no committed operation
lost, none double-applied, every response identical to the fault-free
run.  On top of that sit the protocol-level claims — recovery armed but
idle costs nothing, revocation re-homes every shard of a dead node and
rejoin rebalancing hands shards back, and an unsurvivable schedule fails
loudly instead of silently dropping operations.  A hypothesis property
sweeps random crash schedules across pipeline depths and node counts.
Every :func:`run_cluster` run also holds each node placement to the node
monitor (``tests/cluster/node_tap.py``): a node applies in submission
order, so a misplaced op would change no response.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import TokenCluster
from repro.cluster.router import _REPLAY_BASE as REPLAY_BASE
from repro.config import ClusterConfig, FaultConfig
from repro.errors import ClusterError
from repro.objects.erc20 import ERC20TokenType
from repro.obs import TraceRecorder
from repro.spec.operation import op
from repro.workloads import (
    CHAIN_HEAVY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
    serial_reference,
)
from tests.cluster.node_tap import tap_node_placements

SEED = 7
ACCOUNTS = 64
TIMEOUT = 12.0


def make_items(ops: int = 400, seed: int = SEED):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=CHAIN_HEAVY_MIX
    ).generate(ops)


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def run_cluster(
    items,
    fault: FaultConfig | None = None,
    timeout: float | None = TIMEOUT,
    nodes: int = 4,
    **overrides,
) -> TokenCluster:
    token = make_token()
    config = ClusterConfig(
        num_nodes=nodes,
        lanes_per_node=4,
        window=64,
        seed=SEED,
        result_timeout=timeout,
        fault=fault if fault is not None else FaultConfig(),
        **overrides,
    )
    cluster = TokenCluster(token, config)
    tap = tap_node_placements(cluster.nodes)
    cluster.run_workload(items)
    assert tap.placed >= len(items) and tap.flagged == []
    return cluster


def assert_equivalent(cluster: TokenCluster, items, token=None) -> None:
    ref_state, ref_responses = serial_reference(token or make_token(), items)
    assert cluster.state == ref_state
    responses = [cluster.router.responses[i] for i in range(len(items))]
    assert responses == ref_responses
    assert cluster.stats.ops_lost == 0


SCHEDULES = {
    "permanent_crash": FaultConfig(enabled=True, crashes=((1, TIMEOUT),)),
    "crash_restart": FaultConfig(
        enabled=True, crashes=((1, TIMEOUT, 40.0),)
    ),
    "double_crash": FaultConfig(
        enabled=True, crashes=((1, 10.0), (3, 25.0))
    ),
    "result_drop_burst": FaultConfig(
        enabled=True, drops=(("cl_result", 1.0, 5.0, 6.0),)
    ),
    "grant_drops": FaultConfig(
        enabled=True, drops=(("cl_lease_grant", 0.4, 0.0, 30.0),), seed=3
    ),
    "result_delays": FaultConfig(
        enabled=True, delays=(("cl_result", 4.0, 0.5),), seed=5
    ),
    "crash_plus_ack_delays": FaultConfig(
        enabled=True,
        crashes=((2, 15.0, 45.0),),
        delays=(("cl_lease_ack", 3.0, 0.5),),
        seed=11,
    ),
}


@pytest.mark.parametrize("name", sorted(SCHEDULES))
def test_serial_equivalence_under_fault_schedules(name):
    items = make_items()
    cluster = run_cluster(items, fault=SCHEDULES[name])
    assert_equivalent(cluster, items)


def test_crashes_exercise_revocation_and_replay():
    items = make_items()
    stats = run_cluster(items, fault=SCHEDULES["permanent_crash"]).stats
    assert stats.revocations > 0
    assert stats.ops_replayed > 0
    assert stats.rejoins == 0
    restarted = run_cluster(items, fault=SCHEDULES["crash_restart"]).stats
    assert restarted.rejoins == 1


def test_recovery_at_pipeline_depth_one():
    """One round in flight is the same router loop, so recovery needs no
    second regime: two nodes bounce while 2% of results drop, and the run
    still loses nothing and matches the sequential spec."""
    items = make_items()
    cluster = run_cluster(
        items,
        fault=FaultConfig(
            enabled=True,
            crashes=((1, TIMEOUT, 80.0), (2, 30.0, 110.0)),
            drops=(("cl_result", 0.02, 0.0, 1e9),),
            seed=3,
        ),
        pipeline_depth=1,
    )
    assert_equivalent(cluster, items)
    assert cluster.stats.max_inflight_rounds == 1
    assert cluster.stats.revocations > 0
    assert cluster.stats.ops_replayed > 0
    assert cluster.stats.rejoins == 2


def test_recovery_armed_but_idle_is_identical_to_unarmed():
    """``result_timeout`` set with no fault firing: every timer is
    cancelled before it fires, and a cancelled timer never advances the
    virtual clock — so the whole stats dict reproduces bit for bit."""
    items = make_items()
    unarmed = run_cluster(items, timeout=None)
    armed = run_cluster(items, timeout=TIMEOUT)
    assert armed.state == unarmed.state
    assert armed.router.responses == unarmed.router.responses
    unarmed_stats = unarmed.stats.as_dict()
    armed_stats = armed.stats.as_dict()
    assert armed_stats == unarmed_stats
    assert armed.stats.makespan == unarmed.stats.makespan


def test_unsurvivable_schedule_fails_loudly():
    """Dropping every result forever: every node still answers probes,
    so nobody is declared dead — instead each replayed copy is eaten in
    turn until the retransmission budget runs out.  The run must end in
    a ClusterError — never in silent operation loss."""
    items = make_items()
    with pytest.raises(ClusterError, match="retransmission budget"):
        run_cluster(
            items,
            fault=FaultConfig(
                enabled=True, drops=(("cl_result", 1.0, 0.0, 1e9),)
            ),
        )


def run_with_lease_loss(dropped: str) -> TokenCluster:
    """A lease-migrating workload on a network that eats every message of
    one lease type, inside a virtual-time bound (a healthy run ends near
    t = 235): a router that resends forever leaves rounds in flight at
    the bound and fails on "did not quiesce" instead of hanging."""
    accounts = 32
    token = ERC20TokenType(accounts, total_supply=100 * accounts)
    items = TokenWorkloadGenerator(
        accounts, seed=SEED, mix=CHAIN_HEAVY_MIX
    ).generate(256)
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=4,
            lanes_per_node=4,
            window=32,
            seed=SEED,
            result_timeout=20.0,
            fault=FaultConfig(enabled=True, drops=((dropped, 1.0, 0.0, 1e9),)),
        ),
    )
    unbounded_run = cluster.simulator.run
    cluster.simulator.run = lambda: unbounded_run(until=5_000.0)
    cluster.run_workload(items)
    assert_equivalent(cluster, items, token)
    return cluster


def test_a_handoff_whose_every_ack_is_lost_fails_after_its_resend_cap():
    """Both parties answer every probe, so nobody is declared dead and
    the adoption is re-sent — eight times, on one handoff record whose
    resend count survives each resend.  Then the run ends in an honest
    error, never in an endless retransmission."""
    with pytest.raises(ClusterError, match="handoff cannot complete"):
        run_with_lease_loss("cl_lease_ack")


def test_lost_grants_are_healed_by_revoke_readoption():
    """Every ``cl_lease_grant`` is lost: each handoff times out, its
    parties answer, and the resent ``cl_lease_revoke`` hands the adopter
    the lease directly.  The overdue units waiting on those grants were
    replayed meanwhile, so their originals report as stragglers."""
    cluster = run_with_lease_loss("cl_lease_grant")
    assert cluster.stats.ops_lost == 0
    assert cluster.stats.lease_migrations > 0
    assert cluster.stats.stale_messages > 0
    assert cluster.network.stats.by_type["cl_lease_revoke"] > 0


def test_probe_answers_do_not_rearm_the_timers_that_sent_them():
    """Every node bounces once while 2% of results drop, under a short
    timeout: a grant dies with its granter, so the handoff's timer has to
    probe *two* parties while the unit waiting on the grant probes one of
    them.  A pong must not extend the result deadline whose expiry sent
    the ping, and one party's answer must survive the wait for the
    other's — else the router pings in turns for ever and the simulator
    never drains.  The run must end — serially equivalent, or in a
    ``ClusterError`` — inside a simulator-event budget (a healthy run
    takes a few hundred events)."""
    accounts, budget = 256, 20_000
    token = ERC20TokenType(accounts, total_supply=100 * accounts)
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=4,
            lanes_per_node=4,
            window=32,
            result_timeout=5.0,
            fault=FaultConfig(
                enabled=True,
                crashes=[
                    [n, 9.375 + 18.75 * n, 21.875 + 18.75 * n]
                    for n in range(4)
                ],
                drops=[["cl_result", 0.02, 0.0, 1e9]],
            ),
        ),
    )
    items = TokenWorkloadGenerator(
        accounts, seed=3, mix=SPENDER_HEAVY_MIX, zipf_s=1.0, spender_pool=4
    ).generate(384)
    simulator = cluster.simulator
    unbounded_run = simulator.run

    def budgeted_run():
        unbounded_run(max_events=budget - simulator.events_processed)
        if simulator.pending_events:
            pytest.fail(
                f"still {simulator.pending_events} events pending after "
                f"{budget}, virtual time {simulator.now:.0f}: livelock"
            )

    simulator.run = budgeted_run
    try:
        state, responses, stats = cluster.run_workload(items)
    except ClusterError:
        return
    assert (state, responses) == token.run(
        [(item.pid, item.operation) for item in items]
    )
    assert stats.ops_lost == 0
    assert stats.rejoins == 4


def test_a_handoff_resent_after_a_replay_names_the_routing_time_unit():
    """40% of lease grants are lost.  One unit parked behind a lost grant
    is overdue, so the router replays it on another node under a fresh
    index — and *then* re-sends the handoff.  The re-sent
    ``cl_lease_revoke`` must still name the index the unit was routed
    under: that is the incarnation parked on the adopter, and waking it
    is what lets the adopter drain.  Its result arrives for a key the
    replay moved away, so it is a straggler: counted, never merged."""
    items = make_items()
    token = make_token()
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=4,
            lanes_per_node=4,
            window=64,
            seed=SEED,
            result_timeout=TIMEOUT,
            fault=SCHEDULES["grant_drops"],
        ),
    )
    routed_as: dict = {}  # (round, seqs) -> index of the first cl_run
    replayed: set = set()  # (round, routing-time index) replayed since
    resent_after_replay = []
    stragglers = 0
    deliver = cluster.network.send

    def spy(src, dst, type, payload=None):
        nonlocal stragglers
        if type == "cl_run":
            ops = (payload["round"], tuple(o.seq for o in payload["ops"]))
            if payload["unit"] >= REPLAY_BASE:
                replayed.add((payload["round"], routed_as[ops]))
            else:
                routed_as[ops] = payload["unit"]
        elif type in ("cl_lease_request", "cl_lease_revoke"):
            if payload["round"] >= 0:
                assert payload["unit"] < REPLAY_BASE, payload
                if (payload["round"], payload["unit"]) in replayed:
                    resent_after_replay.append(payload)
        elif type == "cl_result":
            if (payload["round"], payload["unit"]) in replayed:
                # The pre-replay incarnation reports after all: poison
                # its responses so a merge could not go unnoticed.
                stragglers += 1
                payload["responses"] = dict.fromkeys(
                    payload["responses"], "straggler"
                )
        deliver(src, dst, type, payload)

    cluster.network.send = spy
    cluster.run_workload(items)
    assert resent_after_replay, "no handoff was re-sent after a replay"
    assert stragglers > 0
    assert cluster.stats.stale_messages == stragglers
    assert "straggler" not in cluster.router.responses.values()
    assert_equivalent(cluster, items)


def test_a_twice_replayed_unit_settles_both_failure_episodes():
    """One unit, two failures: its node is declared dead, the replay's
    node is declared dead too, the second replay runs.  Each episode
    awaits the unit once — whichever key it currently lives under — and
    the one result that finally arrives closes both."""
    token = make_token()
    tracer = TraceRecorder()
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=3, lanes_per_node=4, seed=SEED, result_timeout=TIMEOUT
        ),
        tracer=tracer,
    )
    # Two transfers out of one account: one conflict chain, one unit.
    items = [WorkloadItem(0, op("transfer", 1, 1)) for _ in range(2)]
    cluster.feed(items)
    router = cluster.router
    router.pump()
    first = cluster.shard_map.owner_of(0)
    router._declare_dead(first)
    second = min(n for n in range(3) if n != first)  # the replay's node
    router._declare_dead(second)
    stats = cluster.run()
    assert_equivalent(cluster, items)
    assert stats.ops_replayed == 4  # two ops, replayed twice
    # Nobody really crashed, so all three incarnations report; the two
    # superseded ones are stragglers.
    assert cluster.network.stats.by_type["cl_result"] == 3
    assert stats.stale_messages >= 2
    recoveries = [s for s in tracer.spans if s.category == "recovery"]
    assert sorted(s.args["node"] for s in recoveries) == sorted(
        (first, second)
    )
    (end,) = {s.end for s in recoveries}
    assert {s.start for s in recoveries} == {0.0}
    assert stats.recovery_makespan == 2 * end


def test_a_revoked_shard_is_no_longer_held():
    """Revocation lets go of a shard the rejoin rebalance had just handed
    over: a dead owner's shard is re-grantable at once."""
    cluster = TokenCluster(
        make_token(),
        ClusterConfig(num_nodes=4, result_timeout=TIMEOUT),
    )
    router = cluster.router
    shards = set(cluster.shard_map.shards_of_node(1))
    other = min(cluster.shard_map.shards_of_node(0))
    router._held.update(shards | {other})
    router._revoke_shards(1, [0, 2, 3])
    assert not cluster.shard_map.shards_of_node(1)
    assert router._held == {other}


def test_revocation_rehomes_every_shard_of_a_dead_node():
    """Declaring a node dead moves every shard it owns onto a live node
    at once — only a shard mid-handoff waits, for the adopter — and each
    is re-grantable at once; the rejoin rebalancing hands the restarted
    node shards again, held for the round routed next."""
    items = make_items()
    token = make_token()
    config = ClusterConfig(
        num_nodes=4,
        lanes_per_node=4,
        window=64,
        seed=SEED,
        result_timeout=TIMEOUT,
        fault=FaultConfig(enabled=True, crashes=((1, TIMEOUT, 60.0),)),
    )
    cluster = TokenCluster(token, config)
    router = cluster.router
    observed = {}

    original_declare = router._declare_dead

    def spy_declare(node):
        owned_before = set(cluster.shard_map.shards_of_node(node))
        in_handoff = set(router._handoffs)
        original_declare(node)
        kept = set(cluster.shard_map.shards_of_node(node))
        assert kept <= in_handoff, (
            f"revocation left shards on the dead node: {kept - in_handoff}"
        )
        moved = owned_before - kept
        observed.setdefault("revoked", set()).update(moved)
        live = set(router._live())
        assert {cluster.shard_map.owner_of_shard(s) for s in moved} <= live
        assert not moved & router._held, "a revoked shard is still held"

    original_rejoin = router.node_rejoined

    def spy_rejoin(node):
        owned_before = set(cluster.shard_map.shards_of_node(node))
        original_rejoin(node)
        gained = set(cluster.shard_map.shards_of_node(node)) - owned_before
        observed.setdefault("rebalanced", set()).update(gained)
        assert gained <= router._held, "a rebalanced shard is not held"

    router._declare_dead = spy_declare
    router.node_rejoined = spy_rejoin
    cluster.run_workload(items)
    assert observed.get("revoked"), "the crash never revoked a shard"
    assert observed.get("rebalanced"), "the rejoin never rebalanced"
    # Rounds were routed after the rejoin, and the first one let go.
    assert not router._held
    assert_equivalent(cluster, items)


def test_a_shard_orphaned_on_a_dead_owner_never_strands_a_unit():
    """Found by the sweep below (pinned here; the sweep stays random).
    Round 0's handoff of shard 20 (node 2 -> 0) is in flight when nodes 0
    and 1 crash, and round 1's queued migration has already moved the
    *map* to node 1.  Declaring 1 dead drops the queued migration but
    must leave shard 20 alone — its token is held — and declaring 0 dead
    then releases the token with nobody left to revoke the shard: it
    stays owned by dead node 1.  Routing must still place every later
    unit on a live node — on the parent commit round 2's units queue on
    node 1 for ever and the run ends in "did not quiesce"."""
    items = make_items(ops=160, seed=24546)
    cluster = run_cluster(
        items,
        fault=FaultConfig(
            enabled=True, crashes=((0, 1.0, None), (1, 1.0, None))
        ),
        nodes=3,
        pipeline_depth=2,
    )
    assert_equivalent(cluster, items)
    assert cluster.stats.revocations > 0
    assert cluster.stats.ops_replayed > 0


def test_a_lease_request_outliving_its_granters_crash_is_dropped():
    """Found by the sweep below (pinned here; the sweep stays random).
    Node 0's rejoin at 33 rebalances shard 25 off node 1, whose request
    is in flight when node 1 bounces (down 33.25 – 34.25, too briefly to
    be declared dead).  The restart resyncs node 1's shards to the map,
    which already moved shard 25 away, and the request lands after it:
    the node must drop it, not fail the run, and the router's lease
    timer hands the shard to node 0 unilaterally."""
    items = make_items(ops=160, seed=1)
    cluster = run_cluster(
        items,
        fault=FaultConfig(
            enabled=True,
            crashes=((0, 1.0, 33.0), (2, 3.0, None), (1, 33.25, 34.25)),
        ),
        nodes=4,
        pipeline_depth=1,
    )
    assert_equivalent(cluster, items)
    assert cluster.router.shard_map.owner_of_shard(25) == 0
    assert 25 in cluster.nodes[0].owned_shards
    assert 25 not in cluster.nodes[1].owned_shards


@settings(max_examples=20, deadline=None)
@given(
    data=st.data(),
    nodes=st.integers(min_value=2, max_value=4),
    depth=st.integers(min_value=1, max_value=3),
    workload_seed=st.integers(min_value=0, max_value=2**16),
)
def test_serial_equivalence_under_random_crash_schedules(
    data, nodes, depth, workload_seed
):
    """For ANY crash schedule leaving at least one node alive, the
    surviving operations' results are serially equivalent to the
    fault-free run — across node counts and pipeline depths."""
    crash_count = data.draw(
        st.integers(min_value=1, max_value=nodes - 1), label="crashes"
    )
    victims = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=nodes - 1),
            min_size=crash_count,
            max_size=crash_count,
            unique=True,
        ),
        label="victims",
    )
    crashes = []
    for victim in victims:
        at = data.draw(
            st.floats(min_value=1.0, max_value=80.0), label="crash_at"
        )
        restart = data.draw(
            st.one_of(
                st.none(),
                st.floats(min_value=at + 1.0, max_value=at + 120.0),
            ),
            label="restart_at",
        )
        crashes.append((victim, at, restart))
    items = make_items(ops=160, seed=workload_seed)
    cluster = run_cluster(
        items,
        fault=FaultConfig(enabled=True, crashes=tuple(crashes)),
        nodes=nodes,
        pipeline_depth=depth,
    )
    assert_equivalent(cluster, items)
