"""The consensus-based baseline: a replicated ERC20 ledger over total order.

Every token operation — even a plain owner ``transfer`` — is submitted to
the global total-order broadcast and executed by every replica in the
committed order.  This is the execution model of today's smart-contract
blockchains that the paper argues over-synchronizes: the ERC20 object at the
deployed state has consensus number 1, yet the baseline pays the full
``O(n²)``-message, leader-bottlenecked consensus cost per operation.

The benchmarks compare this baseline against the §7-style dynamic network in
:mod:`repro.dynamic.dynamic_token` on identical workloads.
"""

from __future__ import annotations

from typing import Any

from repro._records import field, record
from repro.net.network import Network
from repro.net.total_order import TotalOrderNode
from repro.objects.erc20 import ERC20TokenType, TokenState
from repro.spec.operation import Operation


@record(frozen=True, slots=True)
class LedgerTransaction:
    """A client-signed token operation submitted to the chain."""

    pid: int
    operation: Operation
    #: Client-side metadata for latency accounting.
    tx_id: int
    submitted_at: float

    def __repr__(self) -> str:  # keep digests stable and compact
        return f"tx({self.tx_id},{self.pid},{self.operation})"


@record
class AppliedRecord:
    """Execution record for one transaction on one replica."""

    tx_id: int
    response: Any
    sequence: int
    applied_at: float


class LedgerNode(TotalOrderNode):
    """A replica executing ERC20 transactions in total order."""

    def __init__(
        self,
        node_id: int,
        network: Network,
        num_nodes: int,
        token_type: ERC20TokenType,
        leader: int = 0,
        max_batch: int = 64,
    ) -> None:
        super().__init__(
            node_id,
            network,
            num_nodes,
            deliver=self._execute_batch,
            leader=leader,
            max_batch=max_batch,
        )
        self.token_type = token_type
        self.token_state: TokenState = token_type.initial_state()
        self.applied: list[AppliedRecord] = []
        self._tx_counter = 0

    # -- client API -----------------------------------------------------------

    def submit_operation(self, pid: int, operation: Operation) -> int:
        """Submit a token operation on behalf of process ``pid``; returns the
        transaction id used for latency accounting."""
        self._tx_counter += 1
        tx_id = self.node_id * 1_000_000 + self._tx_counter
        tx = LedgerTransaction(
            pid=pid, operation=operation, tx_id=tx_id, submitted_at=self.now
        )
        self.submit(tx)
        return tx_id

    # -- execution --------------------------------------------------------------

    def _execute_batch(self, sequence: int, txs: list[Any]) -> None:
        for tx in txs:
            self.token_state, response = self.token_type.apply(
                self.token_state, tx.pid, tx.operation
            )
            self.applied.append(
                AppliedRecord(
                    tx_id=tx.tx_id,
                    response=response,
                    sequence=sequence,
                    applied_at=self.now,
                )
            )


@record
class LedgerStats:
    """Aggregate measurements for one ledger run."""

    operations: int
    messages: int
    messages_per_op: float
    mean_latency: float
    p99_latency: float
    makespan: float
    by_type: dict[str, int] = field(default_factory=dict)


def measure_ledger(
    nodes: list[LedgerNode],
    submissions: dict[int, float],
) -> LedgerStats:
    """Compute latency/throughput statistics after a simulation run.

    Args:
        nodes: All replicas (node 0's applied log defines commit times).
        submissions: ``tx_id -> submit time`` recorded by the workload.
    """
    reference = nodes[0]
    latencies: list[float] = []
    for record in reference.applied:
        submitted = submissions.get(record.tx_id)
        if submitted is not None:
            latencies.append(record.applied_at - submitted)
    latencies.sort()
    operations = len(latencies)
    network = reference.network
    makespan = max((r.applied_at for r in reference.applied), default=0.0)
    return LedgerStats(
        operations=operations,
        messages=network.stats.messages_sent,
        messages_per_op=(
            network.stats.messages_sent / operations if operations else 0.0
        ),
        mean_latency=sum(latencies) / operations if operations else 0.0,
        p99_latency=(
            latencies[min(operations - 1, int(0.99 * operations))]
            if operations
            else 0.0
        ),
        makespan=makespan,
        by_type=dict(network.stats.by_type),
    )


def build_ledger(
    simulator_network: Network,
    num_nodes: int,
    token_type: ERC20TokenType,
    max_batch: int = 64,
) -> list[LedgerNode]:
    """Instantiate ``num_nodes`` replicas on an existing network."""
    return [
        LedgerNode(
            node_id,
            simulator_network,
            num_nodes,
            token_type,
            max_batch=max_batch,
        )
        for node_id in range(num_nodes)
    ]
