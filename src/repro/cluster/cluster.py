"""The distributed token-processing cluster, wired end to end.

:class:`TokenCluster` deploys N :class:`~repro.cluster.node.ClusterNode`
workers plus one :class:`~repro.cluster.router.Router` on a single
virtual-time network, shards the account space over the workers
(:class:`~repro.cluster.sharding.ShardMap`), and drives the router's
pipelined round loop: each round the router classifies a mempool window,
forwards owner-local components point-to-point, migrates shard leases for
uncontended cross-shard chains, and orders contended cross-node conflicts
through the tiered sync layer (:mod:`repro.sync`): a team lane among just
the component's owner nodes when ``team_threshold`` allows, the shared
total-order lane otherwise.  The makespan is whatever the
simulator clock says when the mempool drains — network latency, per-node
lane execution, lease handshakes, and consensus latency all included.

Serial-equivalence contract (machine-checked in
``tests/cluster/test_cluster_properties.py``): the final state and every
response equal a sequential execution of the workload in submission
order, for any node count (which sets the shard count) and any lease
schedule.

Quickstart::

    from repro.cluster import TokenCluster
    from repro.config import ClusterConfig
    from repro.objects.erc20 import ERC20TokenType
    from repro.workloads import TokenWorkloadGenerator, OWNER_ONLY_MIX

    token = ERC20TokenType(64, total_supply=6400)
    cluster = TokenCluster(
        token, ClusterConfig(num_nodes=4, lanes_per_node=8)
    )
    items = TokenWorkloadGenerator(64, seed=7, mix=OWNER_ONLY_MIX).generate(512)
    state, responses, stats = cluster.run_workload(items)
    print(f"{stats.throughput:.2f} ops/t, "
          f"{stats.owner_local_rate:.0%} owner-local, "
          f"{stats.escalation_messages} consensus messages")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from repro.config import ClusterConfig
from repro.engine.classifier import OpClassifier
from repro.engine.mempool import PendingOp
from repro.errors import ClusterError
from repro.faults import FaultInjector
from repro.net.network import Network, UniformLatency
from repro.net.simulation import Simulator
from repro.spec.object_type import SequentialObjectType
from repro.workloads.generators import WorkloadItem

from repro.cluster.node import ClusterNode
from repro.cluster.router import LEASE_MESSAGE_TYPES, Router
from repro.cluster.sharding import ShardMap
from repro.cluster.stats import ClusterStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import TraceRecorder


class TokenCluster:
    """N shard-owning nodes + router + shared escalation lane."""

    def __init__(
        self,
        object_type: SequentialObjectType,
        config: ClusterConfig | None = None,
        *,
        tracer: TraceRecorder | None = None,
    ) -> None:
        self.config = cfg = config if config is not None else ClusterConfig()
        # Enough shards that leases migrate at useful granularity.
        num_shards = max(16, 8 * cfg.num_nodes)
        self.object_type = object_type
        self.simulator = Simulator()
        self.network = Network(
            self.simulator, UniformLatency(0.5, 1.5), seed=cfg.seed
        )
        #: Fault injection (:mod:`repro.faults`): an enabled fault plan is
        #: planted on the simulator and filters every network send; absent
        #: one the network path is untouched (``faults is None``).
        self.injector: FaultInjector | None = None
        if cfg.fault.enabled:
            self.injector = FaultInjector(cfg.fault, self.simulator)
            self.network.faults = self.injector
        self.shard_map = ShardMap(num_shards, cfg.num_nodes)
        self._batch = object_type.batch(object_type.initial_state())
        self.stats = ClusterStats(
            num_nodes=cfg.num_nodes,
            lanes_per_node=cfg.lanes_per_node,
            window=cfg.window,
            num_shards=num_shards,
        )
        #: Optional observability hook (:mod:`repro.obs`), threaded to the
        #: router and every node; ``None`` records nothing and leaves every
        #: stats dict unchanged.
        self.tracer = tracer
        self.nodes = [
            ClusterNode(
                node_id,
                self.network,
                router_id=cfg.num_nodes,
                apply_fn=self._apply,
                classifier=OpClassifier(object_type),
                config=cfg,
                tracer=tracer,
            )
            for node_id in range(cfg.num_nodes)
        ]
        for node in self.nodes:
            node.owned_shards = set(self.shard_map.shards_of_node(node.node_id))
        self.router = Router(
            cfg.num_nodes,
            self.network,
            shard_map=self.shard_map,
            classifier=OpClassifier(object_type),
            stats=self.stats,
            config=cfg,
            faults=self.injector,
            tracer=tracer,
        )
        self.stats.node_bills = [node.bill for node in self.nodes]
        #: seq -> response of every committed op (:meth:`_apply`'s dedup).
        self._applied: dict[int, Any] = {}
        #: What an apply raised: later runs and streams re-raise it.
        self._failed: Exception | None = None
        if self.injector is not None:
            self.injector.on_crash = self._on_crash
            self.injector.on_restart = self._on_restart
            self.injector.install()

    @property
    def state(self) -> Any:
        """The committed state: a read-only snapshot of the one batch that
        every committed op advances, for the cluster's whole life."""
        return self._batch.state()

    # -- intake -----------------------------------------------------------

    def submit(
        self, pid: int, operation, arrival: float | None = None
    ) -> PendingOp | None:
        """Admit one operation at the router (may shed under
        backpressure).  ``arrival`` back-dates the traced ``submit``
        stage to the op's open-loop arrival time; the default stamps the
        simulator's current time."""
        return self.router.submit(pid, operation, arrival=arrival)

    # -- open-loop harness ------------------------------------------------

    def stream_now(self) -> float:
        """The cluster's current virtual time (the simulator clock) —
        the open-loop driver releases arrivals due by this instant.
        Re-raises the error that stopped an earlier run."""
        if self._failed is not None:
            raise self._failed
        return self.simulator.now

    def stream_advance(self, ts: float) -> None:
        """Advance the simulator's clock to ``ts`` (never backward):
        the driver models the quiet gap until the next arrival.
        Refused past a pending event — jumping the clock over scheduled
        work would deliver messages late."""
        horizon = self.simulator.next_event_time
        if horizon is not None and horizon < ts:
            raise ClusterError(
                f"cannot advance the clock to {ts} over an event "
                f"scheduled at {horizon}"
            )
        self.simulator.now = max(self.simulator.now, ts)

    def stream_finish(self) -> ClusterStats:
        """Close out a run: assert quiescence and fold the
        network/simulator tallies into the stats (:meth:`run` ends here
        once the mempool drains)."""
        if not self.router.idle:
            raise ClusterError("stream finished with rounds in flight")
        self.stats.makespan = self.simulator.now
        self.stats.cluster_messages = self.network.stats.messages_sent
        self.stats.lease_messages = sum(
            self.network.stats.by_type.get(kind, 0)
            for kind in LEASE_MESSAGE_TYPES
        )
        # Every admitted op must have a response by quiescence; a nonzero
        # residue is *lost work* the recovery machinery failed to replay.
        self.stats.ops_lost = self.router.admitted_ops - len(
            self.router.responses
        )
        return self.stats

    # -- execution --------------------------------------------------------

    def run(self) -> ClusterStats:
        """Drain the router's mempool.

        The router keeps up to ``pipeline_depth`` rounds in flight,
        dispatching units as their gates clear; round completions pump
        new classifications from inside the event loop, so one simulator
        run drains everything.
        """
        if self._failed is not None:
            raise self._failed
        while True:
            self.router.pump()
            self.simulator.run()
            if not self.router.idle:
                raise ClusterError("pipelined rounds did not quiesce")
            if not self.router.mempool:
                return self.stream_finish()

    def run_workload(
        self, items: Iterable[WorkloadItem]
    ) -> tuple[Any, list[Any], ClusterStats]:
        """Feed a workload, drain it, and return
        ``(final_state, responses, stats)`` — responses aligned with the
        *admitted* items (drops are counted in ``stats.dropped_ops``)."""
        admitted = self.router.admit(items)
        self.run()
        return (
            self.state,
            [self.router.responses[p.seq] for p in admitted],
            self.stats,
        )

    def responses_in_order(self) -> list[Any]:
        """Responses of all executed operations, in submission order."""
        return [
            self.router.responses[seq] for seq in sorted(self.router.responses)
        ]

    # -- internals --------------------------------------------------------

    def _apply(self, op: PendingOp) -> Any:
        """Authoritative state transition, invoked by the executing node at
        its round's virtual completion time.  Exactly-once: a seq that
        already committed returns its recorded response without touching
        state, so replayed units and straggler results from fenced nodes
        can never double-apply."""
        if op.seq not in self._applied:
            try:
                self._applied[op.seq] = self._batch.apply(op.pid, op.operation)
            except Exception as exc:
                self._failed = exc
                raise
        return self._applied[op.seq]

    def _on_crash(self, node_id: int) -> None:
        self.nodes[node_id].crash()
        if self.tracer is not None:
            self.tracer.instant(
                "faults",
                f"node {node_id} crashed",
                self.simulator.now,
                args={"node": node_id},
            )

    def _on_restart(self, node_id: int) -> None:
        # The node's durable identity is its shard ownership; rebuild it
        # from the router's authoritative map (revocations included),
        # then let the router replay what the crash erased and rebalance
        # shards onto the rejoined node.
        self.nodes[node_id].restart(
            owned_shards=set(self.shard_map.shards_of_node(node_id))
        )
        self.router.node_rejoined(node_id)
