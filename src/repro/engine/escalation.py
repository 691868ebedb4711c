"""Escalation: pay for total order only where the theory demands it.

Conflicting pairs — the only pairs that can be decision steps (Theorem 3)
— are exactly the operations the engine cannot reorder or parallelize.
They are handed to the existing leader-based total-order broadcast
(:mod:`repro.net.total_order`) running on the virtual-time simulator: a
replica cluster sequences the batch, and the engine charges the consensus
latency and the full ``O(n²)`` message bill to its virtual clock.  The
contrast *is* the paper's argument: commuting traffic costs lane-parallel
operation units, conflicting traffic costs three quorum phases.

The executor does not call :class:`ConsensusEscalator` unconditionally
(:mod:`repro.sync`): a :class:`~repro.sync.planner.SyncPlanner` first
sizes each contended component's spender bound, routes components within
``team_threshold`` to k-participant team lanes, and keeps this global
lane as the Tier ∞ fallback.  :func:`tiered_escalator` builds that
wiring; with ``team_threshold = 0`` (the configs default to 4) every
contended component takes the global lane.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.mempool import PendingOp
from repro.errors import EngineError
from repro.net.network import LatencyModel, Network, UniformLatency
from repro.net.simulation import Simulator
from repro.net.total_order import TotalOrderNode
from repro.sync.escalation import TieredEscalator
from repro.sync.planner import SyncPlanner


@dataclass(frozen=True, slots=True)
class EscalationResult:
    """Outcome of ordering one batch of conflicting operations."""

    ordered: list[PendingOp]
    virtual_time: float
    messages: int


class ConsensusEscalator:
    """Orders conflicting operations through a total-order replica cluster.

    The cluster lives on its own :class:`Simulator`; its clock is cumulative
    across batches, so repeated escalations keep advancing the same virtual
    timeline (the engine adds the per-batch delta to its own clock).
    """

    def __init__(
        self,
        num_replicas: int = 4,
        seed: int = 0,
        latency: LatencyModel | None = None,
        max_batch: int = 64,
    ) -> None:
        if num_replicas < 4:
            raise EngineError("total order needs n >= 3f+1 with f >= 1: use >= 4")
        self.simulator = Simulator()
        self.network = Network(
            self.simulator,
            latency if latency is not None else UniformLatency(0.5, 1.5),
            seed=seed,
        )
        self._delivered: list[PendingOp] = []
        self.nodes = [
            TotalOrderNode(
                node_id,
                self.network,
                num_replicas,
                deliver=self._on_deliver if node_id == 0 else None,
                max_batch=max_batch,
            )
            for node_id in range(num_replicas)
        ]
        self.batches = 0
        self.total_messages = 0

    # ------------------------------------------------------------------

    def _on_deliver(self, sequence: int, txs: list) -> None:
        self._delivered.extend(txs)

    def order(self, ops: list[PendingOp]) -> EscalationResult:
        """Run the cluster until every submitted operation is delivered."""
        if not ops:
            return EscalationResult(ordered=[], virtual_time=0.0, messages=0)
        started = self.simulator.now
        sent_before = self.network.stats.messages_sent
        self._delivered = []
        leader = self.nodes[0]
        # Submissions originate at the leader so arrival order (and hence
        # the committed order) is the engine's submission order — the merge
        # the serial-equivalence contract requires.
        for op in ops:
            leader.submit(op)
        self.simulator.run()
        if len(self._delivered) != len(ops):
            raise EngineError(
                f"escalation lost operations: sent {len(ops)}, "
                f"delivered {len(self._delivered)}"
            )
        messages = self.network.stats.messages_sent - sent_before
        self.batches += 1
        self.total_messages += messages
        return EscalationResult(
            ordered=list(self._delivered),
            virtual_time=self.simulator.now - started,
            messages=messages,
        )


def tiered_escalator(
    escalator: ConsensusEscalator | None = None,
    *,
    team_threshold: int,
    lane_ttl: int | None,
    latency: LatencyModel | None = None,
    seed: int = 0,
    max_batch: int = 64,
) -> TieredEscalator:
    """Wire a :class:`ConsensusEscalator` into the tiered sync layer.

    The returned :class:`~repro.sync.escalation.TieredEscalator` keeps
    this module's global lane as its Tier ∞ fallback and provisions
    k-participant team lanes for contended components whose spender bound
    is at most ``team_threshold`` (``0`` = always-global).  ``lane_ttl``
    garbage-collects team lanes idle for that many sync rounds (``None``
    keeps them forever), so long runs over
    shifting approval patterns do not accumulate one live replica group
    per distinct team.  Both are required: the defaults live in
    :mod:`repro.config`, not here.
    """
    return TieredEscalator(
        escalator
        if escalator is not None
        else ConsensusEscalator(
            seed=seed, latency=latency, max_batch=max_batch
        ),
        planner=SyncPlanner(team_threshold),
        latency=latency,
        seed=seed,
        max_batch=max_batch,
        lane_ttl=lane_ttl,
    )
