"""One footprint pass per window.

Deterministic guards (counters, no clocks) for what makes an op that
commutes with its whole window cheap: its footprint is computed once —
by ``plan_window`` — and every later stage (sync team sizing,
placement, frontier, the cluster's routing) reads ``plan.footprints``.
There is no memo behind the footprints: the count is of
``object_type.footprint`` calls.
"""

from __future__ import annotations

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from repro.workloads import (
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadItem,
)

N = 16


def _count_calls(obj, name: str) -> list[int]:
    """Shadow ``obj.name`` with a counting twin; returns the live count."""
    calls = [0]
    wrapped = getattr(obj, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return wrapped(*args, **kwargs)

    setattr(obj, name, counting)
    return calls


class TestOneFootprintPass:
    def test_engine_computes_each_footprint_once_per_window(self):
        token = ERC20TokenType(N, total_supply=100 * N)
        # Owner-only: no contended group (contended traffic has its own
        # case below).  Repeats are welcome — nothing remembers an
        # invocation from one op to the next.
        items = [
            WorkloadItem(i % N, op("transfer", (7 * i + 3) % N, 1 + i // N))
            for i in range(6 * N)
        ]
        items += [WorkloadItem(i, op("balanceOf", i)) for i in range(N)] * 2
        computed = _count_calls(token, "footprint")
        engine = PipelinedExecutor(token, EngineConfig(num_lanes=4, window=16))
        engine.run_workload(items)
        assert engine.stats.escalated_ops == 0
        assert computed[0] == len(items)
        assert engine.classifier.stats.footprint_cache_hits == 0

    def test_contended_ops_are_sized_from_the_plans_footprints(self):
        """The sync planner splits and sizes contended groups from the
        plan's footprints: escalated ops cost no second pass."""
        token = ERC20TokenType(N, total_supply=100 * N)
        generator = TokenWorkloadGenerator(N, seed=5, mix=SPENDER_HEAVY_MIX)
        items = generator.generate(160)
        computed = _count_calls(token, "footprint")
        engine = PipelinedExecutor(
            token, EngineConfig(num_lanes=4, window=32, team_threshold=4)
        )
        engine.run_workload(items)
        assert engine.stats.escalated_ops > 0
        assert engine.stats.team_ops > 0  # teams were sized, not skipped
        assert computed[0] == len(items)

    def test_router_computes_each_footprint_once_and_nodes_none(self):
        token = ERC20TokenType(N, total_supply=100 * N)
        generator = TokenWorkloadGenerator(N, seed=5, mix=SPENDER_HEAVY_MIX)
        items = generator.generate(160)
        cluster = TokenCluster(
            token, ClusterConfig(num_nodes=2, lanes_per_node=2, window=32)
        )
        computed = _count_calls(token, "footprint")
        _, _, stats = cluster.run_workload(items)
        assert stats.escalated_ops > 0  # chains, leases and sync all ran
        # Fault-free, every op is routed in exactly one window — and the
        # router and every node share the one token, so a footprint
        # computed on a node would count here too.
        assert computed[0] == len(items)
