"""The shared skew module (one home for Zipf/hot-spot draws) and its
consumers: every generator — engine- and cluster-side — must draw through
the same helpers so contention sweeps are comparable across them."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.cluster import TokenCluster
from repro.cluster.workloads import owner_local_workload
from repro.config import ClusterConfig
from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType
from repro.workloads.skew import skew_drawer, validate_skew, zipf_weights


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


class TestSkewDrawer:
    """Every generator draws its skewed indices here
    (``test_draws.py``), so the skew's shape is held here once."""

    def test_hotspot_concentrates_draws(self):
        draw = skew_drawer(random.Random(7), 50, 0.0, 0.8, 2)
        draws = Counter(draw() for _ in range(2000))
        hot_share = (draws[0] + draws[1]) / 2000
        assert hot_share > 0.7

    def test_zipf_concentrates_draws_and_composes_with_the_hotspot(self):
        def counts(zipf_s, hot):
            draw = skew_drawer(random.Random(5), 30, zipf_s, hot, 1)
            return Counter(draw() for _ in range(2000))

        uniform, zipf = counts(0.0, 0.0), counts(1.5, 0.0)
        assert zipf[0] > 2 * uniform[0]
        both = counts(1.5, 0.5)
        assert both[0] > 1000  # hot overlay plus Zipf head
        assert len(both) > 5  # tail still covered


class TestOwnerLocalSkew:
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
