"""Serial equivalence of every executor at every pipeline depth.

The one contract every scheduling decision answers to: the final state
*and every response* equal the sequential specification run in
submission order.  Held here across the engine and the cluster, each at
one, two and three windows in flight; every cluster run also re-derives
each shipped unit plan from its ops (``tests/cluster/plan_tap.py``) and
holds each node placement to its unit's DAG, sync floor, lease gate and
lanes (``tests/cluster/node_tap.py``), and every engine run holds its
placements to the order the footprints and sync lanes require
(``tests/engine/placement_tap.py``) — both layers apply in submission
order, so a misplaced op shows only there.
Determinism rides along: the same run twice gives the same stats
dictionary.  The static footprint rule every plan rests on is audited
against the semantic oracle once per workload, not once per executor:
the audit depends only on the items, the window and the prefix states.
One more case holds the contract at 4 096 accounts, where a state update
that copies the allowance grid cannot finish in time.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.commutativity import audit_static_kinds
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
    serial_reference,
)
from tests.cluster.node_tap import tap_node_placements
from tests.cluster.plan_tap import tap_shipped_plans
from tests.engine.placement_tap import tap_placements

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
        EngineConfig(window=WINDOW, seed=seed, pipeline_depth=depth),
    )


def _cluster(depth):
    return lambda seed: TokenCluster(
        make_token(),
        ClusterConfig(window=WINDOW, seed=seed, pipeline_depth=depth),
    )


EXECUTORS = {
    **{f"pipelined_d{depth}": _engine(depth) for depth in (1, 2, 3)},
    **{f"cluster_d{depth}": _cluster(depth) for depth in (1, 2, 3)},
}


def make_items(mix_name, seed):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=MIXES[mix_name]
    ).generate(OPS)


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("mix_name", sorted(MIXES))
def test_every_static_verdict_is_sound(mix_name, seed):
    """Each static verdict of each window under-approximates the semantic
    ``PairKind`` at the window's prefix state, on every pair."""
    audit = audit_static_kinds(make_token(), make_items(mix_name, seed), WINDOW)
    assert audit.violations == []
    assert audit.pairs == OPS // WINDOW * WINDOW * (WINDOW - 1) // 2


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("mix_name", sorted(MIXES))
@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_matches_the_sequential_spec_and_is_deterministic(
    executor, mix_name, seed
):
    items = make_items(mix_name, seed)
    ref_state, ref_responses = make_token().run(
        [(item.pid, item.operation) for item in items]
    )
    first = EXECUTORS[executor](seed)
    cluster = isinstance(first, TokenCluster)
    if cluster:
        tap, nodes = tap_shipped_plans(first), tap_node_placements(first.nodes)
    else:
        tap = tap_placements(first)
    state, responses, stats = first.run_workload(items)
    assert state == ref_state
    assert responses == ref_responses
    _, _, again = EXECUTORS[executor](seed).run_workload(items)
    assert again.as_dict() == stats.as_dict()
    if cluster:
        assert stats.ops_lost == 0
        assert set(first.network.stats.by_type) <= CLUSTER_WIRE_TYPES
        assert tap.checked and tap.differing == []
        assert nodes.placed == len(items) and nodes.flagged == []
    else:
        assert len(tap.units) == len(items) and tap.flagged == []


def test_wide_token_stays_linear_in_accounts():
    """A complexity guard, not a timing test: with the persistent
    ``TokenState`` the whole case takes ~0.3 s; with one dense n x n copy
    per ``approve`` (~0.9 s each at this size) the sequential reference
    alone takes over a minute — the ceiling sits far from both, so it
    trips on a returning quadratic and never on a slow runner.  No oracle
    audit here: the semantic oracle memoizes on ``hash(state)``, itself
    an O(n²) walk per lookup at this width."""
    accounts = 4096
    deadline = time.perf_counter() + 10.0
    items = TokenWorkloadGenerator(
        accounts, seed=1, mix=APPROVAL_HEAVY_MIX
    ).generate(OPS)

    def wide_token():
        return ERC20TokenType(accounts, total_supply=100 * accounts)

    reference = serial_reference(wide_token(), items)
    assert time.perf_counter() < deadline
    for executor in (
        PipelinedExecutor(wide_token(), EngineConfig(window=WINDOW, seed=1)),
        TokenCluster(
            wide_token(), ClusterConfig(window=WINDOW, seed=1, num_nodes=4)
        ),
    ):
        state, responses, _ = executor.run_workload(items)
        assert (state, responses) == reference
        assert time.perf_counter() < deadline
