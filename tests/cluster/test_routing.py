"""Routing policy with no simulator: :func:`route_window` on a hand-built
shard map.

Routing is a function of (window, ownership, live nodes) — no network,
no clock — so the policy claims are checked here directly: who wins a
chain, when a lease moves (and that a shard moves at most once a round),
and the liveness invariant that no unit is ever placed on a dead node, whatever
the ownership map says.
"""

from __future__ import annotations

import inspect

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import routing
from repro.cluster.routing import route_window
from repro.cluster.sharding import ShardMap
from repro.config import ClusterConfig
from repro.engine import OpClassifier, PendingOp
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.sync import TieredEscalator
from repro.workloads import CHAIN_HEAVY_MIX, TokenWorkloadGenerator
from tests import reference

ACCOUNTS = 64
NODES = 4
SHARDS = 16


def route(window, shard_map, index=0, live=None):
    classifier = OpClassifier(
        ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    )
    return route_window(
        window,
        index,
        classifier=classifier,
        shard_map=shard_map,
        sync=TieredEscalator(team_threshold=ClusterConfig().team_threshold),
        live=list(range(shard_map.num_nodes)) if live is None else live,
    )


def accounts_of(shard_map, node):
    """Accounts the node owns, one per shard (distinct shards)."""
    found = {}
    for account in range(ACCOUNTS):
        if shard_map.owner_of(account) == node:
            found.setdefault(shard_map.shard_of(account), account)
    return list(found.values())


def chain(first_seq, *accounts):
    """A payment chain ``a -> b -> c ...``: each transfer spends what the
    previous one credited, so the ops form one uncontended component, and
    each anchors on its sender."""
    return [
        PendingOp(first_seq + i, sender, op("transfer", receiver, 1))
        for i, (sender, receiver) in enumerate(zip(accounts, accounts[1:]))
    ]


def unit_of(routed, seq):
    (unit,) = [
        u for u in routed.units.values() if seq in {o.seq for o in u.ops}
    ]
    return unit


def test_majority_owner_wins_and_leases_the_minority_shard():
    shard_map = ShardMap(SHARDS, NODES)
    a, b = accounts_of(shard_map, 2)[:2]
    (c,) = accounts_of(shard_map, 1)[:1]
    (sink,) = accounts_of(shard_map, 3)[:1]
    shard = shard_map.shard_of(c)
    window = chain(0, a, b, c, sink)
    routed = route(window, shard_map, index=5)
    unit = unit_of(routed, 0)
    assert (unit.node, len(unit.ops), unit.leases) == (2, 3, 1)
    assert routed.lease_pending == [(shard, 1, 2)]
    assert routed.lease_units == {shard: unit.uidx}
    assert routed.pending_acks == 1
    # The map it was handed moved with the plan.
    assert shard_map.owner_of_shard(shard) == 2
    # Start-of-round ownership is the owner-local yardstick.
    assert routed.stats.owner_local_ops == 2
    assert routed.stats.lease_migrations == 1


def test_an_even_split_goes_to_the_lighter_node_and_moves_no_lease():
    shard_map = ShardMap(SHARDS, NODES)
    a, b, c = accounts_of(shard_map, 0)[:3]
    d, e = accounts_of(shard_map, 1)[:2]
    # Node 0 already carries a whole chain when the 1-vs-1 chain arrives.
    window = chain(0, a, b, e) + chain(2, c, d, e + SHARDS)
    routed = route(window, shard_map)
    assert unit_of(routed, 0).node == 0
    assert unit_of(routed, 2).node == 1
    assert unit_of(routed, 2) is unit_of(routed, 3)
    assert routed.lease_pending == []
    assert routed.stats.owner_local_ops == 3


def test_a_shard_moves_at_most_once_per_round():
    shard_map = ShardMap(SHARDS, NODES)
    a, b = accounts_of(shard_map, 2)[:2]
    (c,) = accounts_of(shard_map, 1)[:1]
    d, e = accounts_of(shard_map, 3)[:2]
    sinks = accounts_of(shard_map, 0)
    shard = shard_map.shard_of(c)
    # The first chain leases c's shard to node 2; the second, two ops on
    # node 3 and one on that shard, would lease it on to node 3.
    window = chain(0, a, b, c, sinks[0]) + chain(3, d, e, c + SHARDS, sinks[1])
    routed = route(window, shard_map)
    first, second = unit_of(routed, 0), unit_of(routed, 3)
    assert (first.node, first.leases) == (2, 1)
    # The second chain still runs whole on its majority owner; only the
    # handoff is refused.
    assert (second.node, len(second.ops), second.leases) == (3, 3, 0)
    assert routed.lease_pending == [(shard, 1, 2)]
    assert shard_map.owner_of_shard(shard) == 2


def split_three_ways(shard_map):
    """A chain anchored twice on node 2 and once each on nodes 1 and 3,
    and the two minority shards."""
    a, b = accounts_of(shard_map, 2)[:2]
    (c,) = accounts_of(shard_map, 1)[:1]
    (d,) = accounts_of(shard_map, 3)[:1]
    (sink,) = accounts_of(shard_map, 0)[:1]
    return (
        chain(0, a, b, c, d, sink),
        shard_map.shard_of(c),
        shard_map.shard_of(d),
    )


def test_a_two_one_one_split_leases_both_minority_shards():
    shard_map = ShardMap(SHARDS, NODES)
    window, from_1, from_3 = split_three_ways(shard_map)
    routed = route(window, shard_map)
    unit = unit_of(routed, 0)
    assert (unit.node, len(unit.ops), unit.leases) == (2, 4, 2)
    assert sorted(routed.lease_pending) == sorted(
        [(from_1, 1, 2), (from_3, 3, 2)]
    )


def test_a_later_chain_sees_an_earlier_chains_migration():
    shard_map = ShardMap(SHARDS, NODES)
    a, b, x = accounts_of(shard_map, 0)[:3]
    (c,) = accounts_of(shard_map, 1)[:1]
    sinks = accounts_of(shard_map, 3)
    neighbour = c + SHARDS  # another account of c's shard
    assert shard_map.shard_of(neighbour) == shard_map.shard_of(c)
    window = chain(0, a, b, c, sinks[0]) + chain(3, neighbour, x, sinks[1])
    routed = route(window, shard_map)
    # The first chain moved c's shard to node 0, so the second chain is
    # wholly node 0's: no second lease, and not the 1-vs-1 tie (which the
    # lighter node 1 would have won) it was at the start of the round.
    assert unit_of(routed, 3).node == 0
    assert unit_of(routed, 3).leases == 0
    assert len(routed.lease_pending) == 1
    # ... though its head was not owner-local when the round began.
    assert routed.stats.owner_local_ops == 3


def test_hot_bundles_split_only_across_several_live_nodes():
    (hot,) = accounts_of(ShardMap(SHARDS, NODES), 0)[:1]
    window = [PendingOp(i, hot, op("balanceOf", hot)) for i in range(8)]
    spread = route(window, ShardMap(SHARDS, NODES))
    assert spread.stats.hot_split_ops == 8
    assert sorted(spread.assignment) == [0, 1, 2, 3]
    assert {len(ops) for ops in spread.assignment.values()} == {2}
    alone = route(window, ShardMap(SHARDS, NODES), live=[0])
    assert alone.stats.hot_split_ops == 0
    assert {node: len(ops) for node, ops in alone.assignment.items()} == {0: 8}
    # A dead owner's bundle goes to a live node without counting as hot.
    orphaned = route(window, ShardMap(SHARDS, NODES), live=[2])
    assert orphaned.stats.hot_split_ops == 0
    assert list(orphaned.assignment) == [2]


def test_a_chain_whose_majority_owner_is_dead_runs_on_a_live_owner():
    shard_map = ShardMap(SHARDS, NODES)
    a, b = accounts_of(shard_map, 1)[:2]
    c, d = accounts_of(shard_map, 2)[:2]
    routed = route(chain(0, a, b, c, d, d + SHARDS), shard_map, live=[0, 2, 3])
    unit = unit_of(routed, 0)
    # Node 2 holds two of the four ops: enough to lease the dead owner's
    # shards onto itself (the router adopts them unilaterally).
    assert unit.node == 2
    assert sorted(routed.lease_pending) == sorted(
        (shard_map.shard_of(account), 1, 2) for account in (a, b)
    )
    # With every owner dead the chain still runs — on the lightest node.
    shard_map = ShardMap(SHARDS, NODES)
    routed = route(chain(0, a, b, a + SHARDS), shard_map, live=[0, 3])
    assert unit_of(routed, 0).node == 0
    assert routed.lease_pending == []


@settings(max_examples=60, deadline=None)
@given(
    owners=st.lists(
        st.integers(min_value=0, max_value=NODES - 1),
        min_size=SHARDS,
        max_size=SHARDS,
    ),
    live=st.sets(
        st.integers(min_value=0, max_value=NODES - 1), min_size=1
    ).map(sorted),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_no_unit_is_ever_placed_on_a_dead_node(owners, live, seed):
    """For ANY ownership map — shards stranded on dead nodes included —
    every op of the window lands in exactly one unit, on a live node."""
    shard_map = ShardMap(SHARDS, NODES)
    for shard, owner in enumerate(owners):
        if shard_map.owner_of_shard(shard) != owner:
            shard_map.migrate(shard, owner)
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=CHAIN_HEAVY_MIX
    ).generate(48)
    window = [
        PendingOp(seq, item.pid, item.operation)
        for seq, item in enumerate(items)
    ]
    routed = route(window, shard_map, live=live)
    assert {unit.node for unit in routed.units.values()} <= set(live)
    assert set(routed.assignment) <= set(live)
    assert sorted(
        o.seq for unit in routed.units.values() for o in unit.ops
    ) == list(range(len(window)))
    # Leases only ever move onto the (live) node running their chain.
    assert {to_node for _, _, to_node in routed.lease_pending} <= set(live)
    assert routed.pending == routed.stats.units_dispatched == len(routed.units)


def _routed_shape(routed):
    """What a routed round decides: where every op goes, the units, and
    the lease moves."""
    return (
        {node: [o.seq for o in ops] for node, ops in routed.assignment.items()},
        {
            key: ([o.seq for o in unit.ops], unit.leases, unit.contended)
            for key, unit in routed.units.items()
        },
        routed.lease_pending,
        routed.lease_units,
        routed.stats,
    )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    live=st.sets(
        st.integers(min_value=0, max_value=NODES - 1), min_size=2
    ).map(sorted),
)
def test_live_order_does_not_change_the_routing(seed, live):
    """Load ties go to the lowest id however ``live`` is ordered: the
    load table's ``min`` / ``max`` keep the first of equal keys, so
    ``route_window`` sorts ``live`` on entry."""
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=CHAIN_HEAVY_MIX, hotspot_fraction=0.5
    ).generate(48)
    window = [
        PendingOp(seq, item.pid, item.operation)
        for seq, item in enumerate(items)
    ]
    ascending = route(window, ShardMap(SHARDS, NODES), live=live)
    descending = route(window, ShardMap(SHARDS, NODES), live=live[::-1])
    assert _routed_shape(descending) == _routed_shape(ascending)


def test_descending_live_splits_and_spills_like_ascending():
    """One window whose hot bundle is split and whose owner then spills,
    routed with ``live`` ascending and descending: identical rounds."""
    (hot,) = accounts_of(ShardMap(SHARDS, NODES), 1)[:1]
    cold = accounts_of(ShardMap(SHARDS, NODES), 3)
    window = [PendingOp(i, hot, op("balanceOf", hot)) for i in range(9)]
    window += [
        PendingOp(9 + i, cold[i % 2], op("balanceOf", cold[i % 2]))
        for i in range(5)
    ]
    routed = [
        route(window, ShardMap(SHARDS, NODES), live=live)
        for live in ([0, 1, 2, 3], [3, 2, 1, 0])
    ]
    assert routed[0].stats.hot_split_ops == 9
    assert routed[0].stats.spill_ops > 0
    assert _routed_shape(routed[1]) == _routed_shape(routed[0])


@settings(max_examples=60, deadline=None)
@given(
    owners=st.lists(
        st.integers(min_value=0, max_value=NODES - 1),
        min_size=SHARDS,
        max_size=SHARDS,
    ),
    live=st.sets(
        st.integers(min_value=0, max_value=NODES - 1), min_size=1
    ).map(sorted),
    seed=st.integers(min_value=0, max_value=2**16),
    size=st.integers(min_value=1, max_value=64),
)
def test_every_unit_ships_the_plan_its_ops_derive(owners, live, seed, size):
    """The unit is the contract: a chain unit's ``dag`` is, position for
    position, the one DAG a graph over its ops alone has; a unit without
    one has no edge to order; and a replay carries the identical plan."""
    shard_map = ShardMap(SHARDS, NODES)
    for shard, owner in enumerate(owners):
        if shard_map.owner_of_shard(shard) != owner:
            shard_map.migrate(shard, owner)
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=CHAIN_HEAVY_MIX
    ).generate(size)
    window = [
        PendingOp(seq, item.pid, item.operation)
        for seq, item in enumerate(items)
    ]
    routed = route(window, shard_map, live=live)
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    for unit in routed.units.values():
        seqs = [o.seq for o in unit.ops]
        assert seqs == sorted(set(seqs))
        expected = reference.plan(token, unit.ops)
        if unit.dag is None:
            assert not expected.chains
        else:
            assert [unit.dag] == expected.dags
            assert unit.dag.size == len(unit.ops)
        dag, summary, delay = unit.dag, unit.summary, unit.sync_delay
        unit.requeue(live[0], 1 << 20, now=3.0)
        assert unit.dag is dag and unit.summary is summary
        assert unit.sync_delay == delay


def test_routing_needs_no_network():
    source = inspect.getsource(routing)
    imports = [
        line
        for line in source.splitlines()
        if line.startswith(("import ", "from "))
    ]
    assert imports, "no imports found: the check is looking at nothing"
    assert not [line for line in imports if "repro.net" in line]
