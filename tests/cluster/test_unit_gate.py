"""The router's cross-round footprint gate, pinned to the scan it replaced.

A unit's blockers are fixed once, when its round is routed: the
unfinished units of earlier in-flight rounds whose footprint unions do not
statically commute with it.  Each check then only drops finished blockers.
That is exact because an earlier round's unit records never change (a
replay moves the same record), ``done`` only turns true, and later rounds
never gate earlier ones.  Here every gate check of real runs — fault-free,
and with a crash, a restart and dropped results, so replays and
revocations happen — is compared with the old rescan of every unit of
every earlier in-flight round.
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.cluster.router import Router
from repro.cluster.routing import _Unit
from repro.config import ClusterConfig, FaultConfig
from repro.objects.erc20 import ERC20TokenType
from repro.objects.footprint import static_pair_kind
from repro.workloads import (
    CHAIN_HEAVY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    serial_reference,
)

ACCOUNTS = 64
TIMEOUT = 12.0
FAULTS = FaultConfig(
    enabled=True,
    # Down long enough to be declared dead (revocation, replay), then
    # back (rejoin); 5 % of results lost on top (retransmits).
    crashes=((1, TIMEOUT, 120.0),),
    drops=(("cl_result", 0.05, 0.0, 1e9),),
    seed=3,
)


def scan_blocked(router: Router, unit: _Unit) -> bool:
    """The gate as every check used to compute it: does the unit fail to
    commute with any unfinished unit of any earlier in-flight round?"""
    return any(
        not other.done
        and static_pair_kind(unit.summary, other.summary) != "commute"
        for index, round_state in router._inflight.items()
        if index < unit.round
        for other in round_state.units.values()
    )


def run_checked(monkeypatch, mix, depth: int, fault: FaultConfig | None):
    """Run a cluster whose every gate verdict — a unit refused
    (``_Unit.block``) or let through (``_Unit.dispatch``) — is checked
    against :func:`scan_blocked`; returns the cluster, its items, the
    count of each verdict and the token."""
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    items = TokenWorkloadGenerator(ACCOUNTS, seed=7, mix=mix).generate(480)
    config = ClusterConfig(
        num_nodes=4,
        window=32,
        seed=7,
        pipeline_depth=depth,
        result_timeout=TIMEOUT if fault is not None else None,
        fault=fault if fault is not None else FaultConfig(),
    )
    cluster = TokenCluster(token, config)
    verdicts = {"blocked": 0, "passed": 0}
    block, dispatch = _Unit.block, _Unit.dispatch

    def checked_block(unit, now):
        assert scan_blocked(cluster.router, unit)
        verdicts["blocked"] += 1
        block(unit, now)

    def checked_dispatch(unit, now):
        assert not scan_blocked(cluster.router, unit)
        verdicts["passed"] += 1
        return dispatch(unit, now)

    with monkeypatch.context() as patch:
        patch.setattr(_Unit, "block", checked_block)
        patch.setattr(_Unit, "dispatch", checked_dispatch)
        cluster.run_workload(items)
    return cluster, items, verdicts, token


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize(
    "mix", [SPENDER_HEAVY_MIX, CHAIN_HEAVY_MIX], ids=["spender", "chain"]
)
def test_fault_free_gate_matches_the_scan(monkeypatch, mix, depth):
    cluster, _, verdicts, _ = run_checked(monkeypatch, mix, depth, None)
    assert verdicts["passed"] == cluster.stats.units_dispatched
    if depth == 1:
        # One round in flight: nothing earlier to wait for.
        assert verdicts["blocked"] == 0
    else:
        assert verdicts["blocked"] > 0


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_gate_matches_the_scan_through_replays_and_revocations(
    monkeypatch, depth
):
    cluster, items, verdicts, token = run_checked(
        monkeypatch, CHAIN_HEAVY_MIX, depth, FAULTS
    )
    stats = cluster.stats
    assert stats.ops_replayed > 0 and stats.revocations > 0
    assert stats.rejoins == 1
    # Every replay incarnation passed the gate again.
    assert verdicts["passed"] > stats.units_dispatched
    if depth > 1:
        assert verdicts["blocked"] > 0
    state, responses = serial_reference(token, items)
    assert cluster.state == state
    assert [cluster.router.responses[i] for i in range(len(items))] == responses
