"""repro.sync — consensus-number-tiered synchronization lanes.

The paper's central theorems (Thm 2–4) price synchronization *per state*:
an ERC20 token whose largest enabled-spender set has size *k* is exactly a
*k*-consensus object.  This package makes the execution layer pay that
price and no more, per contended conflict-graph component:

* **Tier 0** — owner-only traffic: no messages at all (the engine's and
  cluster's existing fast path; CN = 1);
* **Tier k** — a *team lane*: a k-participant total-order instance scoped
  to the component's spender bound (``O(k²)`` messages), with many
  independent teams running concurrently on one clock
  (:mod:`repro.net.team_lanes`);
* **Tier ∞** — the global lane: the pool's top lane, every replica on
  its team (total order is n-consensus) and on the same clock, a
  *fallback* for components whose spender set exceeds
  ``team_threshold`` or cannot be statically bounded.

Sizing is sound by construction: team bounds are supersets of the
semantic enabled-spender oracle (:mod:`repro.sync.bounds`, property-tested
in ``tests/sync/``), and *any* tier assignment is serially equivalent —
every lane commits in submission order, so thresholds and team schedules
move the message bill, never the outcome.

Quickstart::

    from repro.config import EngineConfig
    from repro.engine import PipelinedExecutor
    from repro.objects.erc20 import ERC20TokenType
    from repro.workloads import APPROVAL_HEAVY_MIX, TokenWorkloadGenerator

    token = ERC20TokenType(32, total_supply=3200)
    engine = PipelinedExecutor(
        token, EngineConfig(num_lanes=8, team_threshold=4)
    )
    items = TokenWorkloadGenerator(
        32, seed=7, mix=APPROVAL_HEAVY_MIX, spender_pool=4
    ).generate(512)
    state, responses, stats = engine.run_workload(items)
    print(f"{stats.team_ops} ops on team lanes, "
          f"{stats.global_ops} on the global lane, "
          f"k-histogram {stats.k_histogram}")
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.sync.bounds": ("component_team", "spender_bound"),
    "repro.sync.escalation": (
        "ComponentOrder",
        "SyncRoundResult",
        "TieredEscalator",
    ),
    "repro.sync.planner": ("TIER_GLOBAL", "SyncAssignment", "SyncPlanner"),
}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
