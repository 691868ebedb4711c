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
from repro.workloads import (
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
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


@pytest.mark.parametrize("faults", sorted(FAULTS))
def test_one_drain_pass_is_the_fixpoint(faults):
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    items = TokenWorkloadGenerator(
        ACCOUNTS, seed=7, mix=SPENDER_HEAVY_MIX
    ).generate(480)
    fault = FAULTS[faults]
    # Few shards, small windows, three rounds in flight and a one-op lease
    # gain: one shard's handoffs queue behind each other.
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=4,
            lanes_per_node=4,
            window=16,
            num_shards=8,
            lease_min_gain=1,
            pipeline_depth=3,
            seed=7,
            result_timeout=12.0 if fault.enabled else None,
            fault=fault,
        ),
    )
    watch = DrainWatch(cluster.router)
    state, responses, stats = cluster.run_workload(items)

    assert (state, responses) == serial_reference(token, items)
    assert watch.drains > 0 and watch.sends >= stats.units_dispatched > 0
    assert stats.lease_migrations > 0 and watch.waiting > 0
    if fault.enabled:
        assert stats.revocations > 0 and stats.ops_replayed > 0
