"""The router drains its gates in one pass, and one pass is the fixpoint.

:meth:`Router._drain_gates` walks the queued lease migrations once and
the node queues once: opening a handoff takes a shard's token and
dispatching a unit finishes nothing, so neither can open a gate that the
same pass already walked past.  Each test wraps the router's drain on a
real cluster run and, after every call, asks a second
``_drain_unit_queues()`` to dispatch (it must send nothing) and every
migration still queued for a handoff to find its shard's token taken.
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, FaultConfig
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import (
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
    serial_reference,
)

ACCOUNTS = 64

FAULTS = {
    "fault_free": FaultConfig(),
    "crash_restart_and_drops": FaultConfig(
        enabled=True,
        crashes=((1, 12.0, 60.0), (2, 30.0, 90.0)),
        drops=(("cl_result", 0.05, 0.0, 1e9), ("cl_lease_ack", 0.1, 0.0, 1e9)),
        seed=4,
    ),
}


class DrainWatch:
    """Holds the fixpoint after every ``_drain_gates`` call of ``router``."""

    def __init__(self, router) -> None:
        self.router = router
        self.drains = 0
        self.sends = 0
        #: Drains after which some planned migration still waited for
        #: its shard's token (the lease half of the claim was exercised).
        self.waiting = 0
        self._drain = router._drain_gates
        self._send = router._send_unit
        router._drain_gates = self.drain
        router._send_unit = self.send_unit

    def send_unit(self, round_state, unit) -> None:
        self.sends += 1
        self._send(round_state, unit)

    def drain(self) -> None:
        router = self.router
        self._drain()
        self.drains += 1
        sends = self.sends
        router._drain_unit_queues()
        assert self.sends == sends, "a second pass dispatched a unit"
        queued = [
            shard
            for round_state in router._inflight.values()
            for shard, _, _ in round_state.lease_pending
        ]
        assert all(shard in router._handoffs for shard in queued)
        self.waiting += bool(queued)


def tug_of_war(shard_map, rounds: int) -> list[WorkloadItem]:
    """One 2-vs-1 chain a window, alternately anchored on node 0 and
    node 1, each pulling ``b``'s shard to its majority owner: every
    round plans a migration of the shard whose last handoff may still be
    in flight."""
    a = next(x for x in range(ACCOUNTS) if shard_map.owner_of(x) == 0)
    b = next(x for x in range(ACCOUNTS) if shard_map.owner_of(x) == 1)
    c = next(
        x
        for x in range(ACCOUNTS)
        if shard_map.owner_of(x) == 1
        and shard_map.shard_of(x) != shard_map.shard_of(b)
    )
    items = []
    for k in range(rounds):
        puller = a if k % 2 == 0 else c
        items += [
            WorkloadItem(puller, op("transfer", b, 1)),
            WorkloadItem(puller, op("transfer", b, 1)),
            WorkloadItem(b, op("transfer", puller, 1)),
        ]
    return items


@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_one_drain_pass_is_the_fixpoint(faults):
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    fault = FAULTS[faults]
    # One-chain windows, three rounds in flight and a tug of war over one
    # shard: its handoffs queue behind each other.
    config = ClusterConfig(
        num_nodes=4,
        lanes_per_node=4,
        window=3,
        pipeline_depth=3,
        seed=7,
        result_timeout=12.0 if fault.enabled else None,
        fault=fault,
    )
    cluster = TokenCluster(token, config)
    items = tug_of_war(cluster.shard_map, rounds=16)
    items += TokenWorkloadGenerator(
        ACCOUNTS, seed=7, mix=SPENDER_HEAVY_MIX
    ).generate(480)
    watch = DrainWatch(cluster.router)
    state, responses, stats = cluster.run_workload(items)

    assert (state, responses) == serial_reference(token, items)
    assert watch.drains > 0 and watch.sends >= stats.units_dispatched > 0
    assert stats.lease_migrations > 0 and watch.waiting > 0
    if fault.enabled:
        assert stats.revocations > 0 and stats.ops_replayed > 0
