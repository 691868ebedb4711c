"""The cluster's state is one batch, applied exactly once per op.

``TokenCluster`` keeps one :meth:`~repro.spec.object_type.
SequentialObjectType.batch` for its whole life; ``state`` is a snapshot of
it.  Two properties ride on that, with and without faults:

* exactly once — a replayed unit or a straggler result from a fenced node
  returns the recorded response and never reaches the spec a second time;
* per-call lookup — every op goes through the token's ``apply`` attribute
  at the moment it commits, so a wrapper installed after the cluster is
  built sees every one (``benchmarks/wall/spans.py`` relies on this).
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, FaultConfig
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    serial_reference,
)

ACCOUNTS = 64
TIMEOUT = 12.0
#: Node 1 down long enough to be declared dead (revocation, replay), then
#: back (rejoin); 5 % of results lost on top (retransmits).
BOUNCE_AND_DROP = FaultConfig(
    enabled=True,
    crashes=((1, TIMEOUT, 120.0),),
    drops=(("cl_result", 0.05, 0.0, 1e9),),
    seed=3,
)


@pytest.mark.parametrize(
    "fault", [None, BOUNCE_AND_DROP], ids=["fault_free", "bounce_and_drop"]
)
def test_every_op_reaches_the_spec_exactly_once(fault):
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=7, mix=SPENDER_HEAVY_MIX
    ).generate(480)
    expected_state, expected_responses = serial_reference(token, items)
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=4,
            window=32,
            seed=7,
            result_timeout=TIMEOUT if fault is not None else None,
            fault=fault if fault is not None else FaultConfig(),
        ),
    )
    calls = []
    inner = token.apply

    def counted(state, pid, operation):
        calls.append(operation)
        return inner(state, pid, operation)

    token.apply = counted
    state, responses, stats = cluster.run_workload(items)
    if fault is not None:
        assert stats.ops_replayed > 0 and stats.revocations > 0
    assert len(calls) == len(items)
    assert state == expected_state
    assert responses == expected_responses
    # With no commit since, ``state`` hands out the same cached snapshot.
    assert cluster.state is state
