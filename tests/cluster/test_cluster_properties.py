"""Cluster determinism and serial equivalence (the ISSUE's property suite).

Machine-checked guarantees, for *any* node count and *any* lease schedule:

* **serial equivalence** — the cluster's final state and every response
  equal a plain sequential execution of the workload in submission order
  against the object's sequential specification;
* **node-count invariance** — the same workload produces the same state
  and responses on 1, 2, 3, 5 and 8 nodes;
* **lease-schedule invariance** — the shard count (set by the node
  count), the hotspot, or the latency seed changes the message schedule
  and the leases but never the outcome;
* **determinism** — identical configuration implies identical stats.

Exercised across workload mixes, skews (uniform / Zipf / hot-spot), object
types (ERC20, ERC721, asset transfer), and the multi-contract mix.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import audit_static_kinds
from repro.cluster import TokenCluster
from repro.config import ClusterConfig
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    MultiContractWorkloadGenerator,
    TokenWorkloadGenerator,
    WorkloadItem,
    WorkloadMix,
    serial_reference,
    standard_multi_contract,
)
from tests.cluster.plan_tap import tap_shipped_plans

NODE_COUNTS = (1, 2, 3, 5, 8)

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}


def cluster_run(factory, items, nodes, window=16, **knobs):
    config = ClusterConfig(
        num_nodes=nodes, lanes_per_node=4, window=window, **knobs
    )
    return TokenCluster(factory(), config).run_workload(items)


class TestSerialEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("nodes", NODE_COUNTS)
    def test_erc20_state_and_responses_match_spec(self, mix_name, nodes):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=71, mix=MIXES[mix_name]
        ).generate(200)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = cluster_run(
            lambda: ERC20TokenType(12, total_supply=240), items, nodes
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.sampled_from(NODE_COUNTS),
        hotspot=st.sampled_from([0.0, 0.6]),
    )
    def test_erc20_hypothesis_sweep(self, seed, nodes, hotspot):
        """Any node count × any lease schedule: the schedule knobs change
        the message pattern, never the outcome."""
        token = ERC20TokenType(8, total_supply=80)
        items = TokenWorkloadGenerator(
            8,
            seed=seed,
            mix=SPENDER_HEAVY_MIX,
            hotspot_fraction=hotspot,
            hotspot_accounts=2,
        ).generate(100)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = cluster_run(
            lambda: ERC20TokenType(8, total_supply=80),
            items,
            nodes,
            seed=seed,
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        nodes=st.sampled_from(NODE_COUNTS),
    )
    def test_shard_geometry_never_changes_the_outcome(self, seed, nodes):
        """The node count sets the ring (``max(16, 8 * nodes)`` shards)."""
        token = ERC20TokenType(10, total_supply=200)
        items = TokenWorkloadGenerator(
            10, seed=seed, mix=WorkloadMix(), zipf_s=1.2
        ).generate(120)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = cluster_run(
            lambda: ERC20TokenType(10, total_supply=200),
            items,
            nodes,
            seed=seed,
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), nodes=st.sampled_from(NODE_COUNTS))
    def test_erc721_races(self, seed, nodes):
        rng = random.Random(seed)
        factory = lambda: ERC721TokenType(  # noqa: E731
            4, initial_owners=[0, 1, 2, 3, 0, 1]
        )
        names = ["transferFrom", "approve", "ownerOf", "setApprovalForAll"]
        items = []
        for _ in range(60):
            name = rng.choice(names)
            pid = rng.randrange(4)
            if name == "transferFrom":
                operation = op(
                    name, rng.randrange(4), rng.randrange(4), rng.randrange(6)
                )
            elif name == "approve":
                operation = op(name, rng.randrange(4), rng.randrange(6))
            elif name == "ownerOf":
                operation = op(name, rng.randrange(6))
            else:
                operation = op(name, rng.randrange(4), rng.random() < 0.5)
            items.append(WorkloadItem(pid, operation))
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = cluster_run(factory, items, nodes, window=12)
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), nodes=st.sampled_from(NODE_COUNTS))
    def test_asset_transfer_shared_accounts(self, seed, nodes):
        rng = random.Random(seed)
        owner_map = [{0, 1}, {1}, {2}, {3}, {0, 3}]
        factory = lambda: AssetTransferType(  # noqa: E731
            [20] * 5, owner_map=owner_map, num_processes=4
        )
        items = [
            WorkloadItem(
                rng.randrange(4),
                op(
                    "transfer",
                    rng.randrange(5),
                    rng.randrange(5),
                    rng.randint(0, 6),
                ),
            )
            for _ in range(80)
        ]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = cluster_run(factory, items, nodes, window=16)
        assert state == ref_state
        assert responses == ref_responses


class TestNodeCountInvariance:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_final_state_identical_across_node_counts(self, mix_name):
        items = TokenWorkloadGenerator(
            12, seed=29, mix=MIXES[mix_name]
        ).generate(200)
        outcomes = [
            cluster_run(
                lambda: ERC20TokenType(12, total_supply=240), items, nodes
            )[:2]
            for nodes in NODE_COUNTS
        ]
        first_state, first_responses = outcomes[0]
        for state, responses in outcomes[1:]:
            assert state == first_state
            assert responses == first_responses


class TestMultiContract:
    def test_per_contract_clusters_match_their_specs(self):
        """The multi-contract mix routed one cluster per contract (the
        multi-token pattern) stays serially equivalent per contract."""
        object_types, generator = standard_multi_contract(
            16, seed=5, zipf_s=1.1, hotspot_fraction=0.2
        )
        per_contract = MultiContractWorkloadGenerator.split(
            generator.generate(240)
        )
        assert set(per_contract) == set(object_types)
        for name, items in per_contract.items():
            object_type = object_types[name]
            ref_state, ref_responses = serial_reference(object_type, items)
            cluster = TokenCluster(
                object_type,
                ClusterConfig(num_nodes=3, lanes_per_node=4, window=16),
            )
            state, responses, stats = cluster.run_workload(items)
            assert state == ref_state, name
            assert responses == ref_responses, name
            assert stats.ops_executed == len(items)


class TestValidatedRuns:
    """Runs beside both checks: the static rule the router plans with is
    audited against the semantic oracle at every window's prefix state,
    and every plan shipped to a node is re-derived from its ops."""

    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_validated_against_oracle(self, mix_name):
        factory = lambda: ERC20TokenType(10, total_supply=200)  # noqa: E731
        items = TokenWorkloadGenerator(
            10, seed=13, mix=MIXES[mix_name]
        ).generate(150)
        cluster = TokenCluster(
            factory(), ClusterConfig(num_nodes=4, lanes_per_node=4, window=16)
        )
        tap = tap_shipped_plans(cluster)
        state, responses, stats = cluster.run_workload(items)
        assert (state, responses) == serial_reference(factory(), items)
        assert stats.ops_executed == 150
        assert tap.checked and tap.differing == []
        audit = audit_static_kinds(factory(), items, 16)
        assert audit.violations == []
        assert audit.pairs == 9 * 16 * 15 // 2 + 6 * 5 // 2
