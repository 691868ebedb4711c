#!/usr/bin/env python3
"""Engine quickstart: the paper's trichotomy as an execution strategy.

Feeds ERC20 traffic through the commutativity-aware engine
(:mod:`repro.engine`: one executor, configured by one ``EngineConfig``)
and shows the pipeline —

    mempool -> classify -> synchronize -> place -> commit

— on three workloads: the paper's Example 1 (watch the approve /
transferFrom race get escalated to consensus), a conflict-free owner-only
workload (the consensus-number-1 regime: parallel lanes, zero messages),
and a spender-heavy workload (synchronization groups paying for total
order).

Run:  python examples/engine_quickstart.py
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    example1_trace,
)

RULE = "=" * 72


def show(title: str, stats) -> None:
    print(f"  {title}")
    print(
        f"    ops={stats.ops_executed}  rounds={stats.waves}  "
        f"fast-path={stats.fast_path_rate:.0%}  "
        f"escalated={stats.escalation_rate:.0%}"
    )
    print(
        f"    virtual time={stats.virtual_time:.1f}  "
        f"(serial would be {stats.serial_virtual_time:.1f})  "
        f"speedup={stats.speedup:.2f}x  "
        f"consensus messages={stats.escalation_messages}"
    )


def main() -> None:
    print(RULE)
    print("1. Example 1 (paper §4) through the engine")
    print(RULE)
    token = ERC20TokenType(3, total_supply=10)
    engine = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=4))
    state, responses, stats = engine.run_workload(example1_trace())
    print(f"  responses: {responses}  (paper: [True, True, False, True])")
    print(f"  final balances: {list(state.balances)}  (paper: [8, 2, 0])")
    show("execution:", stats)
    print(
        "  Charlie's transferFroms race Bob's approval on one allowance"
        " cell ->\n  that synchronization group paid for total order;"
        " Alice's opening\n  transfer merely kept its queue position, free"
        " of consensus.\n"
    )

    print(RULE)
    print("2. Owner-only traffic: the consensus-number-1 regime")
    print(RULE)
    token = ERC20TokenType(32, total_supply=3200)
    engine = PipelinedExecutor(token, EngineConfig(num_lanes=8, window=64))
    items = TokenWorkloadGenerator(32, seed=7, mix=OWNER_ONLY_MIX).generate(400)
    _, _, stats = engine.run_workload(items)
    show("8 lanes, 400 ops:", stats)
    assert stats.escalation_messages == 0
    print(
        "  Every operation is a transfer by its account's single owner or"
        " a read:\n  no pair ever contends, so the engine never touches"
        " consensus.\n"
    )

    print(RULE)
    print("3. Spender-heavy traffic: synchronization groups pay for order")
    print(RULE)
    token = ERC20TokenType(32, total_supply=3200)
    engine = PipelinedExecutor(token, EngineConfig(num_lanes=8, window=64))
    items = TokenWorkloadGenerator(
        32, seed=7, mix=SPENDER_HEAVY_MIX
    ).generate(400)
    _, _, stats = engine.run_workload(items)
    show("8 lanes, 400 ops (shipped defaults):", stats)
    # team_threshold is the paper's k: 0 sends every synchronization
    # group to the global broadcast instead of a right-sized team lane.
    global_only = PipelinedExecutor(
        ERC20TokenType(32, total_supply=3200),
        EngineConfig(num_lanes=8, window=64, team_threshold=0),
    )
    _, _, global_stats = global_only.run_workload(items)
    show("same run, team_threshold=0:", global_stats)
    print(
        "  approve/transferFrom races (Theorem 3, Case 4) and multi-spender"
        "\n  accounts form synchronization groups: exactly those operations"
        "\n  are escalated — by default to right-sized team lanes"
        "\n  (team_threshold=4) that run concurrently, with team_threshold=0"
        "\n  to the global broadcast: the same lane pool's top lane."
    )


if __name__ == "__main__":
    main()
