"""Component-granular dispatch + op-granular node planning: cluster tests.

Machine-checked guarantees of :class:`~repro.cluster.TokenCluster`:

* **serial equivalence** — final state and every response equal a plain
  sequential execution in submission order, for any node count, shard
  geometry, pipeline depth, and lease schedule (units interleave on the
  nodes' lane timelines, but conflicting cross-round units are dispatch-
  gated and units of one round are distinct components);
* **granularity** — the router really fans a round out as per-component
  ``cl_run`` units at every pipeline depth, and the nodes' bills carry
  the DAG structure metrics.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import TokenCluster
from repro.config import ClusterConfig
from repro.engine.conflict_graph import ComponentDAG
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadMix,
    serial_reference,
)
from tests.cluster.plan_tap import tap_shipped_plans
from tests.engine.test_one_footprint_pass import _count_calls

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}

ACCOUNTS = 24


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def make_items(mix, ops, seed=17, **kwargs):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=mix, **kwargs
    ).generate(ops)


class TestSerialEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("depth", (1, 3))
    def test_state_and_responses_match_spec(self, mix_name, depth):
        items = make_items(MIXES[mix_name], 300)
        ref_state, ref_responses = serial_reference(make_token(), items)
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=4, lanes_per_node=4, window=48, pipeline_depth=depth
            ),
        )
        state, responses, _ = cluster.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.integers(1, 6),
        depth=st.integers(1, 4),
        window=st.integers(8, 48),
    )
    def test_hypothesis_sweep(self, seed, nodes, depth, window):
        items = make_items(
            SPENDER_HEAVY_MIX, 150, seed=seed,
            hotspot_fraction=0.3, hotspot_accounts=2,
        )
        ref_state, ref_responses = serial_reference(make_token(), items)
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=nodes,
                lanes_per_node=4,
                window=window,
                seed=seed,
                pipeline_depth=depth,
            ),
        )
        state, responses, _ = cluster.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses

    def test_lease_migrations_coexist_with_units(self):
        # Explicit cross-shard uncontended chains (credit-enables-spend
        # across owners) in several pipelined windows: the lease handoff
        # must gate exactly its own unit, never the round's other units.
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=4,
                lanes_per_node=4,
                window=8,
                pipeline_depth=3,
            ),
        )
        owner0 = cluster.shard_map.owner_of(0)
        foreign = [
            a for a in range(1, ACCOUNTS)
            if cluster.shard_map.owner_of(a) != owner0
        ]
        ops = []
        for k, account in enumerate(foreign[:6]):
            ops.append((0, op("transfer", account, 3)))
            ops.append((account, op("transfer", 0, 2)))
            ops.append((k + 10, op("transfer", k + 11, 1)))
        ref_state, ref_responses = make_token().run(ops)
        for pid, operation in ops:
            cluster.submit(pid, operation)
        stats = cluster.run()
        assert cluster.state == ref_state
        assert cluster.responses_in_order() == ref_responses
        assert stats.lease_migrations > 0
        assert stats.units_dispatched > 0

    def test_team_lanes_compose_with_units(self):
        items = make_items(APPROVAL_HEAVY_MIX, 300, seed=13, spender_pool=4)
        ref_state, ref_responses = serial_reference(make_token(), items)
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=6,
                lanes_per_node=4,
                window=48,
                pipeline_depth=3,
                team_threshold=4,
            ),
        )
        state, responses, stats = cluster.run_workload(items)
        assert state == ref_state
        assert responses == ref_responses


def drop_an_edge(dag: ComponentDAG) -> ComponentDAG:
    """``dag`` without its last edge into its latest node that has one."""
    preds = list(dag.preds)
    late = max(k for k, below in enumerate(preds) if below)
    preds[late] = preds[late][:-1]
    return replace(dag, preds=tuple(preds))


class TestGranularity:
    @pytest.mark.parametrize("depth", (1, 3))
    def test_units_fan_out_per_component(self, depth):
        items = make_items(APPROVAL_HEAVY_MIX, 300)
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=4, lanes_per_node=4, window=48, pipeline_depth=depth
            ),
        )
        _, _, stats = cluster.run_workload(items)
        # More units than rounds: rounds really split into components.
        assert stats.units_dispatched > stats.rounds
        assert sum(bill.units_executed for bill in stats.node_bills) == (
            stats.units_dispatched
        )

    def test_node_bills_carry_dag_structure(self):
        items = make_items(APPROVAL_HEAVY_MIX, 300)
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=4, lanes_per_node=4, window=48, pipeline_depth=3
            ),
        )
        _, _, stats = cluster.run_workload(items)
        assert stats.dag_chain_ops >= stats.dag_critical_ops > 0
        assert stats.dag_speedup >= 1.0
        assert stats.max_dag_width >= 2

    def test_nodes_execute_the_routers_plan_and_classify_nothing(self):
        items = make_items(APPROVAL_HEAVY_MIX, 300)
        token = make_token()
        cluster = TokenCluster(
            token,
            ClusterConfig(
                num_nodes=4, lanes_per_node=4, window=48, pipeline_depth=3
            ),
        )
        computed = _count_calls(token, "footprint")
        cluster.run_workload(items)
        # The window is classified once, at the router (the nodes share
        # the one token, so a footprint computed on a node counts too) ...
        assert computed[0] == len(items)
        # ... and every ``cl_run`` carried its component's plan.
        for node in cluster.nodes:
            assert node.bill.units_executed > 0
            assert node.classifier.stats.pairs == 0

    def test_every_shipped_plan_is_the_one_its_ops_derive(self):
        """The plan tap re-derives each ``cl_run``'s plan from its ops
        beside the network: every unit is checked and none differs."""
        items = make_items(APPROVAL_HEAVY_MIX, 200)
        ref_state, ref_responses = serial_reference(make_token(), items)
        config = ClusterConfig(num_nodes=4, lanes_per_node=4, window=48)
        cluster = TokenCluster(make_token(), config)
        tap = tap_shipped_plans(cluster)
        state, responses, stats = cluster.run_workload(items)
        assert (state, responses) == (ref_state, ref_responses)
        assert stats.dag_chain_ops > 0
        assert len(tap.checked) == stats.units_dispatched
        assert tap.differing == []

    @pytest.mark.parametrize(
        "tamper",
        [drop_an_edge, lambda dag: None],
        ids=["drop_an_edge", "drop_the_plan"],
    )
    def test_the_tap_catches_a_tampered_plan(self, monkeypatch, tamper):
        """A wire that drops one edge of every shipped DAG, or ships every
        component as edge-free ops, is caught unit for unit."""
        config = ClusterConfig(num_nodes=4, lanes_per_node=4, window=48)
        cluster = TokenCluster(make_token(), config)
        tap = tap_shipped_plans(cluster)
        send = cluster.network.send
        tampered = []

        def tampering_send(src, dst, type, payload=None):
            if type == "cl_run" and payload["dag"] is not None:
                payload = {**payload, "dag": tamper(payload["dag"])}
                tampered.append((payload["round"], payload["unit"]))
            send(src, dst, type, payload)

        monkeypatch.setattr(cluster.network, "send", tampering_send)
        cluster.run_workload(make_items(APPROVAL_HEAVY_MIX, 200))
        assert tampered and tap.differing == tampered
