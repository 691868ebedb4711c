"""E5 — the dynamic consensus number (Eqs. 11/12/14).

Tracks ``k(q) = max_a |σ_q(a)|`` along long random executions: the level
rises only at successful approvals (or at transfers that fund an account
with latent allowances — the Eq. 10 convention), falls as allowances are
consumed or revoked, and the certified consensus-number bounds follow it.

Standalone (same contract as every gated bench)::

    PYTHONPATH=src python benchmarks/bench_dynamics.py --smoke \
        [--trace TRACE.json]

The analysis itself is pure state inspection — it replays the workload
through the sequential specification and reads ``σ_q`` off each state,
so there is no timeline of its own to trace.  ``--trace`` therefore
records the *representative execution* of the same spender-heavy mix:
the tiered engine (the shipped ``team_threshold``) actually synchronizing
the spender groups whose levels this experiment measures.
"""

from __future__ import annotations

import sys

from common import bench_main
from repro.analysis.hierarchy import token_consensus_number_bounds
from repro.analysis.partition import synchronization_level
from repro.analysis.reachability import (
    level_trajectory,
    verify_level_change_ops,
)
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import Operation
from repro.workloads.generators import (
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
)

N = 6
OPS = 600
SEED = 42


def trace_dynamics(n: int, ops: int, seed: int):
    token = ERC20TokenType(n, total_supply=5 * n)
    items = TokenWorkloadGenerator(
        n, seed=seed, mix=SPENDER_HEAVY_MIX, max_value=6
    ).generate(ops)
    invocations = [(item.pid, item.operation) for item in items]
    trajectory = level_trajectory(token, invocations)
    violations = verify_level_change_ops(token, invocations)
    return trajectory, violations


def measure_trajectory(ops: int) -> dict:
    trajectory, violations = trace_dynamics(n=N, ops=ops, seed=SEED)
    levels = [level for level, _ in trajectory]
    histogram: dict[str, int] = {}
    for level in levels:
        histogram[str(level)] = histogram.get(str(level), 0) + 1
    return {
        "histogram": histogram,
        "rises": sum(1 for a, b in zip(levels, levels[1:]) if b > a),
        "falls": sum(1 for a, b in zip(levels, levels[1:]) if b < a),
        "max_level": max(levels),
        "min_level": min(levels),
        "violations": len(violations),
    }


#: The CN-bounds escalation script: deploy, three approvals raising the
#: owner's enabled-spender set to k=4, then one spend draining it.
CN_SCRIPT = (
    ("deploy", None, None),
    ("approve p1 (10)", 0, ("approve", (1, 10))),
    ("approve p2 (10)", 0, ("approve", (2, 10))),
    ("approve p3 (10)", 0, ("approve", (3, 10))),
    ("p1 spends all", 1, ("transferFrom", (0, 1, 10))),
)


def measure_cn_script() -> list[dict]:
    token = ERC20TokenType(5, total_supply=10)
    state = token.initial_state()
    rows = []
    for label, pid, op in CN_SCRIPT:
        if op is not None:
            state, _ = token.apply(state, pid, Operation(op[0], op[1]))
        lower, upper = token_consensus_number_bounds(state)
        rows.append(
            {
                "after": label,
                "level": synchronization_level(state),
                "cn_lower": lower,
                "cn_upper": upper,
            }
        )
    return rows


def measure(ops: int) -> dict:
    return {
        "params": {"ops": ops, "accounts": N, "seed": SEED},
        "trajectory": measure_trajectory(ops),
        "cn_script": measure_cn_script(),
    }


def check_claims(results: dict) -> None:
    trajectory = results["trajectory"]
    assert trajectory["violations"] == 0
    assert trajectory["max_level"] > 1, (
        "spender-heavy traffic must raise the level"
    )
    assert trajectory["rises"] > 0 and trajectory["falls"] > 0
    rows = results["cn_script"]
    # Deployment: CN = 1; escalation to 4; crash back down after the spend.
    assert (rows[0]["cn_lower"], rows[0]["cn_upper"]) == (1, 1)
    assert rows[3]["level"] == 4
    assert rows[-1]["level"] < 4


def render_trajectory(results: dict) -> list[str]:
    trajectory = results["trajectory"]
    ops = results["params"]["ops"]
    return [
        f"E5: synchronization level along {ops} random operations "
        f"(n={results['params']['accounts']})",
        "level histogram: "
        + ", ".join(
            f"k={k}: {count}"
            for k, count in sorted(
                trajectory["histogram"].items(), key=lambda kv: int(kv[0])
            )
        ),
        f"level rises: {trajectory['rises']}   "
        f"level falls: {trajectory['falls']}",
        f"max level reached: {trajectory['max_level']}   "
        f"min: {trajectory['min_level']}",
        f"rise-attribution violations (must be 0): "
        f"{trajectory['violations']}",
    ]


def render_cn_script(rows: list[dict]) -> list[str]:
    lines = [
        "E5: certified consensus-number bounds along an escalation",
        f"{'after':<22} {'k(q)':>5} {'CN lower':>9} {'CN upper':>9}",
    ]
    for row in rows:
        lines.append(
            f"{row['after']:<22} {row['level']:>5} "
            f"{row['cn_lower']:>9} {row['cn_upper']:>9}"
        )
    return lines


def render_table(results: dict) -> list[str]:
    return (
        render_trajectory(results)
        + [""]
        + render_cn_script(results["cn_script"])
    )


def traced_run(ops: int, tracer) -> None:
    """The representative traced configuration (``--trace``): the level
    analysis replays pure states and has no timeline, so trace the
    tiered engine executing the *same* spender-heavy mix — the team
    lanes it spins up are the k-process synchronization the measured
    levels prescribe."""
    items = TokenWorkloadGenerator(
        N, seed=SEED, mix=SPENDER_HEAVY_MIX, max_value=6
    ).generate(ops)
    engine = PipelinedExecutor(
        ERC20TokenType(N, total_supply=5 * N),
        EngineConfig(num_lanes=4, window=64, seed=SEED),
        tracer=tracer,
    )
    engine.run_workload(items)


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_level_trajectory(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: measure(ops=OPS), rounds=1, iterations=1
    )
    trajectory = results["trajectory"]
    assert trajectory["violations"] == 0
    assert trajectory["max_level"] > 1
    assert trajectory["rises"] > 0 and trajectory["falls"] > 0
    write_table("E5_level_trajectory", render_trajectory(results))


def test_consensus_number_bounds_follow_state(benchmark, write_table):
    rows = benchmark(measure_cn_script)
    assert (rows[0]["cn_lower"], rows[0]["cn_upper"]) == (1, 1)
    assert rows[3]["level"] == 4
    assert rows[-1]["level"] < 4
    write_table("E5_cn_bounds", render_cn_script(rows))


# ---------------------------------------------------------------------------
# standalone smoke entry point (writes BENCH_dynamics.json; not CI-gated —
# the qualitative claims in check_claims are the contract here)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_dynamics.json",
        smoke_ops=OPS,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
        default_ops=OPS,
    )


if __name__ == "__main__":
    sys.exit(main())
