"""The five workloads of the wall-clock benchmark, as plain data.

Parent (``run.py``) and measurement child (``measure.py``) both read this
table; nothing here imports ``repro``, so the parent can plan jobs without
paying the library import.  The child turns a scenario into a generator,
a token type and an executor through the public API only
(``PipelinedExecutor(token, EngineConfig(...))``,
``TokenCluster(token, ClusterConfig(...))``).

Op counts are part of the workload definition.  ISSUE 11 sized them for a
4–6 s timed phase; the benchmark contract (114 driver runs inside 3420 s)
caps a whole run at ~30 s, so every count is the issue's divided by one
common factor, :data:`SIZE_DIVISOR`.  Never scale them between two runs
that are compared: throughput depends on run length (the classifier's
memo dicts grow without bound), and the benchmark has to hold that still.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: ISSUE 11 op counts ÷ this.  Applies to all five workloads alike.
SIZE_DIVISOR = 2
#: ``--smoke`` divides the benchmark's op counts by this again.
SMOKE_DIVISOR = 16

#: The read-mostly mix of ``reads_narrow`` (``WorkloadMix`` kwargs); the
#: other workloads name one of ``repro.workloads``' canonical mixes.
READ_MOSTLY_MIX = {
    "transfer": 0.10,
    "transfer_from": 0.03,
    "approve": 0.05,
    "balance_of": 0.55,
    "allowance": 0.25,
    "total_supply": 0.02,
}

_SPENDER_POOL = {"zipf_s": 1.0, "spender_pool": 4}
_CLUSTER = {"num_nodes": 4, "lanes_per_node": 4, "window": 32}
#: Issue-size op count the fault plan's virtual timestamps were written for.
_FAULT_PLAN_OPS = 12288
RESULT_TIMEOUT = 40.0


@dataclass(frozen=True)
class Scenario:
    name: str
    #: One line: why the workload is in the benchmark (BENCHMARK.json
    #: carries the same sentence; the README the long form).
    why: str
    #: ``"engine"`` = PipelinedExecutor, ``"cluster"`` = TokenCluster.
    kind: str
    ops: int
    accounts: int
    #: Name of a ``repro.workloads`` mix, or ``WorkloadMix`` kwargs.
    mix: str | dict
    #: ``EngineConfig`` / ``ClusterConfig`` kwargs.
    config: dict
    #: Extra ``TokenWorkloadGenerator`` kwargs.
    generator: dict = field(default_factory=dict)
    #: Set on a scenario that runs under :func:`fault_plan`: the name of
    #: the scenario with the same items and no faults, the base of
    #: ``faults.host_cost_share`` / ``faults.makespan_ratio``.  A faulted
    #: run is invalid unless every node bounced and the router revoked
    #: and replayed.
    fault_free_twin: str | None = None
    #: The paper's Tier-0 claim: the run is invalid if it sends a single
    #: synchronization message.
    sync_free: bool = False

    @property
    def faults(self) -> bool:
        return self.fault_free_twin is not None


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="owner_wide",
            why=(
                "owner-only traffic, window 512: the all-pairs classifier "
                "is ~all host time, state apply ~none, zero sync messages"
            ),
            kind="engine",
            ops=4096 // SIZE_DIVISOR,
            accounts=256,
            mix="OWNER_ONLY_MIX",
            config={"num_lanes": 8, "window": 512},
            sync_free=True,
        ),
        Scenario(
            name="approval_dense",
            why=(
                "approve/transferFrom races on a dense 512x512 allowance "
                "matrix: state apply dominates, the classifier is minor"
            ),
            kind="engine",
            ops=1280 // SIZE_DIVISOR,
            accounts=512,
            mix="APPROVAL_HEAVY_MIX",
            config={"num_lanes": 8, "window": 128},
        ),
        Scenario(
            name="reads_narrow",
            why=(
                "read-mostly, window 32: many small windows, READ_ONLY "
                "edges, state reads - per-window fixed cost, not pair loop"
            ),
            kind="engine",
            ops=24576 // SIZE_DIVISOR,
            accounts=256,
            mix=READ_MOSTLY_MIX,
            config={"num_lanes": 8, "window": 32},
        ),
        Scenario(
            name="cluster_spender",
            why=(
                "bounded-operator (spender pool 4, zipf) traffic on the "
                "4-node cluster, fault-free: router, nodes and network "
                "carry ~25% of host time"
            ),
            kind="cluster",
            ops=12288 // SIZE_DIVISOR,
            accounts=256,
            mix="SPENDER_HEAVY_MIX",
            config=dict(_CLUSTER),
            generator=dict(_SPENDER_POOL),
        ),
        Scenario(
            name="cluster_faults",
            why=(
                "cluster_spender's items while every node bounces once "
                "and 2% of results drop: the only run of detection, "
                "revocation and replay"
            ),
            kind="cluster",
            ops=12288 // SIZE_DIVISOR,
            accounts=256,
            mix="SPENDER_HEAVY_MIX",
            config=dict(_CLUSTER, result_timeout=RESULT_TIMEOUT),
            generator=dict(_SPENDER_POOL),
            fault_free_twin="cluster_spender",
        ),
    )
}


def fault_plan(ops: int) -> dict:
    """``FaultConfig`` kwargs for a ``cluster_faults`` run of ``ops`` ops.

    ISSUE 11 wrote the schedule in absolute virtual time for 12 288 ops
    (node *n* down from ``300 + 600 n`` to ``700 + 600 n``); the fault-free
    makespan is proportional to the op count, so the timestamps scale with
    it.  The floors keep a bounce observable at ``--smoke`` sizes: a node
    has to stay down several result timeouts for the router to declare it
    dead and revoke, else rejoin-replay heals it with no revocation.
    """
    scale = ops / _FAULT_PLAN_OPS
    start = 300.0 * scale
    spacing = max(600.0 * scale, RESULT_TIMEOUT)
    downtime = max(400.0 * scale, 4 * RESULT_TIMEOUT)
    return {
        "enabled": True,
        "crashes": [
            [node, start + spacing * node, start + spacing * node + downtime]
            for node in range(_CLUSTER["num_nodes"])
        ],
        "drops": [["cl_result", 0.02, 0.0, 1e9]],
    }
