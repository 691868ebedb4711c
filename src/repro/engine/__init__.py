"""repro.engine — commutativity-aware parallel execution for token workloads.

Turns the paper's trichotomy (commute / read-only / conflict, Theorem 3's
case analysis) into throughput: a mempool of pending token operations is
classified pairwise by a static footprint fast path
(:mod:`repro.objects.footprint`, audited against the semantic oracle of
:mod:`repro.analysis.commutativity` by the tests), a conflict graph picks
out the operations that can be reordered freely, one list scheduler
(:func:`~repro.engine.shard.dag_list_schedule`) places them on a rolling
timeline of parallel lanes, and only genuinely contended operations are
escalated to the tiered sync lanes (:mod:`repro.sync`, whose fallback is
a :class:`~repro.net.team_lanes.TeamLane` over every replica, running
the total-order protocol of :mod:`repro.net.total_order`).

There is one executor, :class:`PipelinedExecutor`, configured by one
:class:`~repro.config.EngineConfig`::

    mempool -> classify -> synchronize -> apply       -> place    -> commit
    (intake)   (trichotomy) (contended     (submission   (lanes,     (publish,
                             ops only)      order)        rolling)    at run())

Quickstart::

    from repro.engine import EngineConfig, PipelinedExecutor
    from repro.objects.erc20 import ERC20TokenType
    from repro.workloads import TokenWorkloadGenerator, OWNER_ONLY_MIX

    token = ERC20TokenType(16, total_supply=1600)
    engine = PipelinedExecutor(token, EngineConfig(num_lanes=4, window=64))
    items = TokenWorkloadGenerator(16, seed=7, mix=OWNER_ONLY_MIX).generate(512)
    state, responses, stats = engine.run_workload(items)
    print(f"{stats.speedup:.2f}x over serial, "
          f"{stats.escalation_rate:.1%} ops needed consensus")
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.config": ("EngineConfig",),
    "repro.engine.classifier": ("ClassifierStats", "OpClassifier"),
    "repro.engine.conflict_graph": ("ComponentDAG",),
    "repro.engine.mempool": ("Mempool", "PendingOp"),
    "repro.engine.pipeline": ("PipelinedExecutor", "ScheduledUnit"),
    "repro.engine.rounds": ("WindowPlan", "plan_window"),
    "repro.engine.shard": ("dag_list_schedule", "stable_account_hash"),
    "repro.engine.stats": ("EngineStats", "WaveStats"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
