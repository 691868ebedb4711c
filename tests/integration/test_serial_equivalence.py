"""Serial equivalence of every executor at every pipeline depth.

The one contract every scheduling decision answers to: the final state
*and every response* equal the sequential specification run in
submission order.  Held here across the engine and the cluster, each at
one, two and three windows in flight, with the all-pairs conflict oracle
on (``validate=True``).  Determinism rides along: the same run twice
gives the same stats dictionary.
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
)

pytestmark = pytest.mark.integration

ACCOUNTS = 16
OPS = 256
WINDOW = 32

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
    "spender_heavy": SPENDER_HEAVY_MIX,
    "chain_heavy": CHAIN_HEAVY_MIX,
}

#: Every message type the cluster network may carry (the sync lanes run
#: on private networks of their own).
CLUSTER_WIRE_TYPES = {
    "cl_run",
    "cl_result",
    "cl_lease_request",
    "cl_lease_grant",
    "cl_lease_ack",
    "cl_lease_revoke",
    "cl_ping",
    "cl_pong",
}


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def _engine(depth):
    return lambda seed: PipelinedExecutor(
        make_token(),
        EngineConfig(
            window=WINDOW, seed=seed, validate=True, pipeline_depth=depth
        ),
    )


def _cluster(depth):
    return lambda seed: TokenCluster(
        make_token(),
        ClusterConfig(
            window=WINDOW, seed=seed, validate=True, pipeline_depth=depth
        ),
    )


EXECUTORS = {
    **{f"pipelined_d{depth}": _engine(depth) for depth in (1, 2, 3)},
    **{f"cluster_d{depth}": _cluster(depth) for depth in (1, 2, 3)},
}


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("mix_name", sorted(MIXES))
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_matches_the_sequential_spec_and_is_deterministic(
    executor, mix_name, seed
):
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=MIXES[mix_name]
    ).generate(OPS)
    ref_state, ref_responses = make_token().run(
        [(item.pid, item.operation) for item in items]
    )
    first = EXECUTORS[executor](seed)
    state, responses, stats = first.run_workload(items)
    assert state == ref_state
    assert responses == ref_responses
    _, _, again = EXECUTORS[executor](seed).run_workload(items)
    assert again.as_dict() == stats.as_dict()
    if isinstance(first, TokenCluster):
        assert stats.ops_lost == 0
        assert set(first.network.stats.by_type) <= CLUSTER_WIRE_TYPES
