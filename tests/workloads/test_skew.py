"""The shared skew module (one home for Zipf/hot-spot draws) and its
consumers: every generator — engine- and cluster-side — must draw through
the same helpers so contention sweeps are comparable across them."""

from __future__ import annotations

import random
from collections import Counter
from itertools import accumulate

import pytest

from repro.cluster import TokenCluster
from repro.cluster.workloads import owner_local_workload
from repro.config import ClusterConfig
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType
from repro.workloads.skew import skewed_index, validate_skew, zipf_weights


class TestZipfWeights:
    def test_normalized_and_monotone(self):
        weights = zipf_weights(20, 1.2)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_s_zero_is_uniform(self):
        weights = zipf_weights(8, 0.0)
        assert all(abs(w - 1 / 8) < 1e-9 for w in weights)


class TestValidateSkew:
    def test_accepts_valid_knobs(self):
        validate_skew(0.0, 1, 4)
        validate_skew(1.0, 4, 4)

    @pytest.mark.parametrize(
        "fraction,count", [(-0.1, 1), (1.5, 1), (0.5, 0), (0.5, 9)]
    )
    def test_rejects_invalid_knobs(self, fraction, count):
        with pytest.raises(InvalidArgumentError):
            validate_skew(fraction, count, 8)


class TestSkewedIndex:
    def test_hotspot_concentrates_draws(self):
        rng = random.Random(7)
        draws = Counter(
            skewed_index(rng, 50, None, 0.8, 2) for _ in range(2000)
        )
        hot_share = (draws[0] + draws[1]) / 2000
        assert hot_share > 0.7

    def test_deterministic_per_seed(self):
        cum_weights = list(accumulate(zipf_weights(30, 1.1)))
        first = [
            skewed_index(random.Random(3), 30, cum_weights, 0.3, 2)
            for _ in range(1)
        ]
        second = [
            skewed_index(random.Random(3), 30, cum_weights, 0.3, 2)
            for _ in range(1)
        ]
        assert first == second

    def test_generators_reexport_the_shared_helpers(self):
        """The historical import path keeps working (one module, one
        implementation — the dedup contract)."""
        from repro.workloads import generators

        assert generators.skewed_index is skewed_index
        assert generators.zipf_weights is zipf_weights
        assert generators.validate_skew is validate_skew


class TestOwnerLocalSkew:
    def test_node_hotspot_concentrates_load(self):
        cluster = TokenCluster(
            ERC20TokenType(32, total_supply=3200),
            ClusterConfig(num_nodes=4, window=16),
        )
        skewed = owner_local_workload(
            cluster.shard_map,
            32,
            400,
            seed=5,
            hotspot_fraction=0.9,
            hotspot_nodes=1,
        )
        owners = Counter(
            cluster.shard_map.owner_of(item.pid) for item in skewed
        )
        assert owners.most_common(1)[0][1] > 300

    def test_skewed_traffic_is_still_owner_local(self):
        token = ERC20TokenType(32, total_supply=3200)
        cluster = TokenCluster(
            token, ClusterConfig(num_nodes=4, window=16, seed=9)
        )
        items = owner_local_workload(
            cluster.shard_map,
            32,
            300,
            seed=9,
            zipf_s=1.3,
            hotspot_fraction=0.5,
            hotspot_nodes=2,
        )
        _, _, stats = cluster.run_workload(items)
        assert stats.escalation_messages == 0
        assert stats.lease_migrations == 0

    def test_unskewed_draws_match_the_historical_stream(self):
        """Default knobs reproduce the pre-dedup draw sequence (the bench
        baselines must not shift)."""
        cluster = TokenCluster(
            ERC20TokenType(16, total_supply=1600),
            ClusterConfig(num_nodes=2, window=16),
        )
        items = owner_local_workload(cluster.shard_map, 16, 50, seed=3)
        again = owner_local_workload(cluster.shard_map, 16, 50, seed=3)
        assert items == again
