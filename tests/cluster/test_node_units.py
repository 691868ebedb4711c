"""The node side of the unit protocol, driven message by message.

A :class:`~repro.cluster.node.ClusterNode` sits alone on a bare
:class:`~repro.net.network.Network` beside a sink that plays the router:
the tests send it ``cl_run`` / ``cl_lease_grant`` / ``cl_lease_revoke``
in the orders the real network can produce and watch what reaches the
sink (``cl_result``, ``cl_lease_ack``) and the apply callback.
"""

from __future__ import annotations

import pytest

from repro.cluster.node import ClusterNode
from repro.config import ClusterConfig
from repro.engine import OpClassifier, PendingOp
from repro.engine.conflict_graph import ComponentDAG
from repro.errors import ClusterError
from repro.net.network import ConstantLatency, Network
from repro.net.node import Node
from repro.net.simulation import Simulator
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from tests.engine.test_one_footprint_pass import _count_calls

NODE, PEER, ROUTER = 0, 1, 2


def chain_dag(size: int) -> ComponentDAG:
    """The plan of ``size`` ops that pairwise conflict: every earlier
    position precedes every later one."""
    return ComponentDAG(
        preds=tuple(tuple(range(k)) for k in range(size)),
        priorities=tuple(range(size, 0, -1)),
        critical_path=size,
        width=1,
    )


class Sink(Node):
    """Stands in for the router (and a lease-granting peer): records
    every message it is sent."""

    def __init__(self, node_id: int, network: Network) -> None:
        super().__init__(node_id, network)
        self.inbox: list = []

    def on_message(self, message) -> None:
        self.inbox.append(message)

    def of_type(self, type: str) -> list:
        return [m for m in self.inbox if m.type == type]


class Rig:
    def __init__(self) -> None:
        self.simulator = Simulator()
        self.network = Network(self.simulator, ConstantLatency(1.0))
        self.router = Sink(ROUTER, self.network)
        Sink(PEER, self.network)
        self.applied: list[int] = []
        token = ERC20TokenType(8, total_supply=80)
        self.node = ClusterNode(
            NODE,
            self.network,
            ROUTER,
            self._apply,
            OpClassifier(token),
            ClusterConfig(num_nodes=2, lanes_per_node=2),
        )

    def _apply(self, pending: PendingOp) -> int:
        self.applied.append(pending.seq)
        return pending.seq

    def send(self, type: str, src: int = ROUTER, **payload) -> None:
        self.network.send(src, NODE, type, payload)

    def run_unit(self, unit: int, seqs, leases: int = 0, **plan) -> None:
        # Transfers out of one account: a conflict chain, one op-time each.
        ops = [PendingOp(seq, 0, op("transfer", 1, 1)) for seq in seqs]
        plan.setdefault("dag", chain_dag(len(ops)))
        self.send(
            "cl_run",
            round=0,
            unit=unit,
            leases=leases,
            ops=ops,
            sync_ready=0.0,
            **plan,
        )

    def results(self) -> list[dict]:
        return [m.payload for m in self.router.of_type("cl_result")]


@pytest.mark.parametrize("grant_first", [True, False])
def test_a_unit_runs_once_its_ops_and_its_lease_grant_are_both_in(
    grant_first,
):
    """The grant comes from a peer node and the ``cl_run`` from the
    router — two links, so either may land first.  A grant that overtakes
    its ``cl_run`` must be remembered, not dropped."""
    rig = Rig()
    if grant_first:
        rig.send("cl_lease_grant", src=PEER, shard=5, round=0, unit=0)
    else:
        rig.run_unit(0, [3, 4], leases=1)
    rig.simulator.run()
    assert rig.results() == [] and rig.applied == []
    if grant_first:
        rig.run_unit(0, [3, 4], leases=1)
    else:
        rig.send("cl_lease_grant", src=PEER, shard=5, round=0, unit=0)
    rig.simulator.run()
    assert rig.applied == [3, 4]
    assert rig.results() == [
        {"round": 0, "unit": 0, "responses": {3: 3, 4: 4}}
    ]
    assert [m.payload for m in rig.router.of_type("cl_lease_ack")] == [
        {"shard": 5, "round": 0}
    ]
    assert 5 in rig.node.owned_shards
    assert rig.node.bill.forwards_received == 2


def test_an_empty_cl_run_is_rejected():
    rig = Rig()
    rig.run_unit(0, [])
    with pytest.raises(ClusterError, match="empty unit"):
        rig.simulator.run()


def test_a_cl_run_whose_ops_are_out_of_order_is_rejected():
    """The plan indexes ops by position, so the node must not re-sort
    them: ops not strictly ascending in ``seq`` fail at the message."""
    for seqs in ([4, 3], [3, 3]):
        rig = Rig()
        rig.run_unit(0, seqs)
        with pytest.raises(ClusterError, match="ascending seq"):
            rig.simulator.run()
        assert rig.applied == []


@pytest.mark.parametrize(
    "dag",
    [
        chain_dag(2),
        chain_dag(4),
        ComponentDAG(((), (2,), ()), (1, 1, 2), 2, 2),
        {0: (), 1: (0,), 2: (1,)},
    ],
    ids=["too_small", "too_large", "forward_pred", "not_a_dag"],
)
def test_a_cl_run_whose_dag_does_not_span_its_ops_is_rejected(dag):
    """A malformed plan fails at the message, not as a wrong schedule:
    a DAG over the wrong number of positions, one with a predecessor not
    below its own position (submission order would no longer be a
    topological order), or no DAG at all."""
    rig = Rig()
    rig.run_unit(0, [0, 1, 2], dag=dag)
    with pytest.raises(ClusterError, match="does not span"):
        rig.simulator.run()
    assert rig.applied == []


def test_the_node_executes_the_shipped_plan_and_classifies_nothing():
    """``dag=None`` says the ops share no edge: they spread over the
    lanes (two lanes, three unit-cost ops: done at 3.0, not 4.0) even
    though these three really conflict — the plan, not a re-derivation,
    is what runs — and the node's classifier is never asked."""
    rig = Rig()
    asked = _count_calls(rig.node.classifier.object_type, "footprint")
    rig.run_unit(0, [0, 1, 2], dag=None)
    rig.simulator.run(until=3.5)
    assert rig.applied == [0, 1, 2]
    assert rig.node.classifier.stats.pairs == 0
    assert asked == [0]
    assert rig.node.bill.dag_chain_ops == 0
    chained = Rig()
    chained.run_unit(0, [0, 1, 2])
    chained.simulator.run(until=3.5)
    assert chained.applied == []
    chained.simulator.run()
    assert chained.applied == [0, 1, 2]
    assert chained.node.bill.dag_chain_ops == 3
    assert chained.node.bill.max_dag_critical_path == 3


@pytest.mark.parametrize("leases", [0, 1], ids=["running", "parked"])
def test_a_second_cl_run_for_a_live_unit_is_rejected(leases):
    """The router never reuses a unit key (a replay gets a fresh index),
    so a second ``cl_run`` for a unit still on the node — executing, or
    parked behind a lease — is a protocol error, not extra ops."""
    rig = Rig()
    rig.run_unit(0, [0, 1, 2], leases=leases)
    rig.simulator.run(until=1.5)
    rig.run_unit(0, [0, 1, 2], leases=leases)
    with pytest.raises(ClusterError, match="second cl_run"):
        rig.simulator.run()


def test_a_duplicate_grant_or_revoke_for_a_running_unit_is_a_no_op():
    """A handoff the router re-sends (its ack was lost) reaches a unit
    that is already executing: the shard is adopted and acked again, the
    unit neither restarts nor reports twice."""
    rig = Rig()
    rig.run_unit(0, [0, 1, 2], leases=1)
    rig.send("cl_lease_grant", src=PEER, shard=5, round=0, unit=0)
    rig.simulator.run(until=1.5)  # running: three chained ops end at 4.0
    assert rig.results() == []
    rig.send("cl_lease_grant", src=PEER, shard=5, round=0, unit=0)
    rig.send("cl_lease_revoke", shard=5, from_node=PEER, round=0, unit=0)
    rig.simulator.run()
    assert rig.applied == [0, 1, 2]
    assert len(rig.results()) == 1
    assert len(rig.router.of_type("cl_lease_ack")) == 3
    assert rig.node.bill.units_executed == 1


def test_crash_drops_parked_units_and_cancels_running_ones():
    """A crash loses exactly the work that had not reached its virtual
    completion: the executing unit's timer is cancelled (nothing is
    applied, no ``cl_result`` leaves the node) and the parked unit is
    forgotten with it — with no fault or recovery setting on: the timer
    lives on the unit's record, not in an opt-in side list."""
    rig = Rig()
    rig.run_unit(0, [0, 1, 2])
    rig.run_unit(1, [3, 4], leases=1)
    rig.simulator.run(until=1.5)
    rig.node.crash()
    rig.node.restart(owned_shards=set())
    rig.simulator.run()
    assert rig.applied == []
    assert rig.results() == []
    assert rig.node.bill.units_executed == 0
    # Both keys are free again: nothing of either unit survived to make
    # a fresh ``cl_run`` a "second" one.
    rig.run_unit(0, [0, 1, 2])
    rig.run_unit(1, [3, 4])
    rig.simulator.run()
    assert sorted(rig.applied) == [0, 1, 2, 3, 4]
    assert len(rig.results()) == 2


def test_node_applies_a_unit_by_start_then_position():
    """Two lanes; position 1 waits for position 0, so it opens a gap on
    the second lane that position 2 (ready at once) backfills: starts
    are ``(0, 1, 0)`` past the unit's ready time, and the apply order is
    positions 0, 2, 1."""
    rig = Rig()
    dag = ComponentDAG(
        preds=((), (0,), ()),
        priorities=(2, 1, 1),
        critical_path=2,
        width=2,
    )
    rig.run_unit(0, (10, 11, 12), dag=dag)
    rig.simulator.run()
    assert rig.applied == [10, 12, 11]
    assert rig.results() == [
        {"round": 0, "unit": 0, "responses": {10: 10, 11: 11, 12: 12}}
    ]
