"""Cluster cross-round pipelining: equivalence and gating properties.

Machine-checked guarantees of the pipelined router
(:class:`repro.cluster.router.Router`, any ``pipeline_depth >= 1``):

* **serial equivalence** — for *any* pipeline depth, node count, shard
  geometry, and lease schedule, the final state and every response equal
  a plain sequential execution in submission order;
* **depth and node-count invariance** — the outcome never depends on the
  overlap depth or the topology;
* **gating sanity** — rounds in flight never exceed the configured depth.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import TokenCluster
from repro.config import ClusterConfig
from repro.errors import ClusterError
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    AssetTransferWorkloadGenerator,
    NFTWorkloadGenerator,
    TokenWorkloadGenerator,
    WorkloadMix,
    serial_reference,
)

DEPTHS = (1, 2, 3, 4)
NODE_COUNTS = (1, 2, 3, 5)

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}


def cluster_run(factory, items, nodes, depth, window=16, **knobs):
    config = ClusterConfig(
        num_nodes=nodes,
        lanes_per_node=4,
        window=window,
        pipeline_depth=depth,
        **knobs,
    )
    return TokenCluster(factory(), config).run_workload(items)


class TestDepthValidation:
    def test_depth_must_be_positive(self):
        with pytest.raises(ClusterError):
            TokenCluster(
                ERC20TokenType(4, total_supply=40),
                ClusterConfig(num_nodes=2, pipeline_depth=0),
            )


class TestSerialEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_erc20_state_and_responses_match_spec(self, mix_name, depth):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=71, mix=MIXES[mix_name]
        ).generate(200)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = cluster_run(
            lambda: ERC20TokenType(12, total_supply=240), items, 4, depth
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 4),
        nodes=st.sampled_from(NODE_COUNTS),
        hotspot=st.sampled_from([0.0, 0.6]),
    )
    def test_erc20_hypothesis_sweep(self, seed, depth, nodes, hotspot):
        """Any depth × node count × hotspot: the knobs change the message
        pattern, the leases and the overlap, never the outcome."""
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
            depth,
            seed=seed,
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(2, 4),
        nodes=st.sampled_from([1, 3, 5]),
    )
    def test_shard_geometry_never_changes_the_outcome(self, seed, depth, nodes):
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
            depth,
            seed=seed,
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(2, 4))
    def test_erc721_races(self, seed, depth):
        factory = lambda: ERC721TokenType(  # noqa: E731
            4, initial_owners=[0, 1, 2, 3, 0, 1]
        )
        nft = NFTWorkloadGenerator(4, num_tokens=6, seed=seed)
        items = [nft.next_item() for _ in range(60)]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = cluster_run(
            factory, items, 3, depth, window=12
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(2, 4))
    def test_asset_transfer_shared_accounts(self, seed, depth):
        owner_map = [{0, 1}, {1}, {2}, {3}, {0, 3}]
        factory = lambda: AssetTransferType(  # noqa: E731
            [20] * 5, owner_map=owner_map, num_processes=4
        )
        transfers = AssetTransferWorkloadGenerator(
            5, 4, seed=seed, max_value=6, read_fraction=0.0
        )
        items = [transfers.next_item() for _ in range(80)]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = cluster_run(factory, items, 3, depth, window=16)
        assert state == ref_state
        assert responses == ref_responses


class TestDepthInvariance:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_all_depths_agree(self, mix_name):
        items = TokenWorkloadGenerator(
            12, seed=29, mix=MIXES[mix_name]
        ).generate(160)
        outcomes = [
            cluster_run(
                lambda: ERC20TokenType(12, total_supply=240), items, 4, depth
            )[:2]
            for depth in DEPTHS
        ]
        first_state, first_responses = outcomes[0]
        for state, responses in outcomes[1:]:
            assert state == first_state
            assert responses == first_responses

    def test_same_config_same_stats(self):
        items = TokenWorkloadGenerator(10, seed=5).generate(150)
        runs = [
            cluster_run(
                lambda: ERC20TokenType(10, total_supply=100), items, 3, 3
            )
            for _ in range(2)
        ]
        assert runs[0][:2] == runs[1][:2]
        assert runs[0][2].as_dict() == runs[1][2].as_dict()


class TestGating:
    def test_inflight_bounded_by_depth(self):
        for depth in (1, 2, 3):
            items = TokenWorkloadGenerator(
                16, seed=9, mix=OWNER_ONLY_MIX
            ).generate(400)
            _, _, stats = cluster_run(
                lambda: ERC20TokenType(16, total_supply=320),
                items,
                4,
                depth,
                window=16,
            )
            assert stats.pipeline_depth == depth
            assert min(depth, 2) <= stats.max_inflight_rounds <= depth
            assert all(r.inflight <= depth for r in stats.round_log)

    def test_contended_traffic_still_escalates(self):
        items = TokenWorkloadGenerator(
            12, seed=41, mix=SPENDER_HEAVY_MIX
        ).generate(240)
        _, _, stats = cluster_run(
            lambda: ERC20TokenType(12, total_supply=240), items, 4, 3
        )
        assert stats.escalated_ops > 0
        assert stats.escalation_messages > 0

    def test_overlap_beats_one_round_in_flight_on_contended_mix(self):
        """The headline, at unit-test scale: overlapping a round's sync
        phase with the previous round's execution shortens the makespan."""
        items = TokenWorkloadGenerator(
            32, seed=23, mix=APPROVAL_HEAVY_MIX
        ).generate(400)
        _, _, serial = cluster_run(
            lambda: ERC20TokenType(32, total_supply=640), items, 4, 1,
            window=32,
        )
        _, _, piped = cluster_run(
            lambda: ERC20TokenType(32, total_supply=640), items, 4, 3,
            window=32,
        )
        assert piped.makespan < serial.makespan
