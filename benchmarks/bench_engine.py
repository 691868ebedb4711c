"""E9 — the execution engine: throughput from the commute/conflict split.

Compares the commutativity-aware sharded executor (``repro.engine``,
one window in flight: ``pipeline_depth=1``, so the numbers isolate lane
parallelism from window overlap — ``bench_pipeline.py`` measures that)
against serial execution on identical workload mixes, in virtual time
(operation units + simulated consensus latency — the repository-wide
measurement philosophy; wall-clock threading would measure the GIL):

* **owner-only mix** (the consensus-number-1 regime): zero escalations —
  the whole workload runs conflict-free on parallel lanes, and the
  sharded engine must beat serial execution outright;
* **mixed / spender-heavy / approval-heavy mixes**: conflict rate,
  escalation rate and the consensus message bill grow with spender
  traffic (approve/transferFrom races, Theorem 3's Case 4);
* **hot-spot skew**: an exchange-wallet overlay concentrates traffic on
  two accounts — commuting bursts still spread over the lanes, racing
  ones pay for order.

A last section prints host µs per op of the spender mix (operator pools
of 4) at two account counts: with α stored sparse, an op's cost follows
its traffic, not the number of accounts.  Host time varies run to run,
so it stays out of the JSON, which is byte-identical across runs.

Every run checks its final state and responses against the sequential
specification.  Once per mix, outside the executor,
:func:`repro.analysis.commutativity.audit_static_kinds` holds the static
footprint rule to the semantic ``PairKind`` oracle over the same windows
(the ``oracle`` block: pairs checked and the rule's conflict precision).

Standalone (writes ``BENCH_engine.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke
"""

from __future__ import annotations

import sys
import time

from common import (
    bench_main,
    render_backpressure,
    render_stats_table,
    run_bench,
)
from repro.analysis.commutativity import audit_static_kinds
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadMix,
)

SEED = 23
ACCOUNTS = 64
WINDOW = 64
SERIAL_LANES = 1
SHARDED_LANES = 8

#: Read-mostly traffic: the engine's best case (reads of distinct accounts
#: all commute), and — under a hot-spot overlay — the showcase for the
#: planner's hot-account splitting.
READ_HEAVY_MIX = WorkloadMix(
    transfer=0.1,
    transfer_from=0.0,
    approve=0.0,
    balance_of=0.85,
    allowance=0.0,
    total_supply=0.05,
)

#: Account counts of the cost-by-accounts probe (host time, printed
#: only: never in the JSON, never gated).
PROBE_ACCOUNTS = (2**10, 2**16)
PROBE_WINDOW = 256

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "read_heavy": READ_HEAVY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}

#: What ``scripts/obs.py gate`` compares against the committed
#: baseline, as dotted paths into the JSON: ``band`` within the relative
#: tolerance, ``zero`` exactly (invariants — in practice: stay zero).
HEADLINES = {
    "band": [
        "mixes.owner_only.speedup",
        "mixes.owner_only.sharded.throughput",
        "mixes.default.sharded.virtual_time",
        "mixes.spender_heavy.sharded.escalation_rate",
        "mixes.spender_heavy.sharded.escalation_messages",
        "mixes.approval_heavy.sharded.escalation_messages",
        "op_latency.sharded_engine.p50",
        "op_latency.sharded_engine.p99",
    ],
    "zero": [
        "mixes.owner_only.sharded.escalation_messages",
    ],
}


def make_token(accounts: int = ACCOUNTS) -> ERC20TokenType:
    return ERC20TokenType(accounts, total_supply=100 * accounts)


def make_items(mix, ops: int, accounts: int = ACCOUNTS, fraction=0.0):
    return TokenWorkloadGenerator(
        accounts,
        seed=SEED,
        mix=mix,
        hotspot_fraction=fraction,
        hotspot_accounts=2,
    ).generate(ops)


def run_engine(
    mix,
    lanes: int,
    ops: int,
    accounts: int = ACCOUNTS,
    hotspot_fraction: float = 0.0,
    tracer: TraceRecorder | None = None,
):
    """One engine run; returns ``(engine, stats)`` after checking the final
    state against the sequential specification."""
    token = make_token(accounts)
    engine = PipelinedExecutor(
        token,
        EngineConfig(
            num_lanes=lanes, window=WINDOW, seed=SEED, pipeline_depth=1
        ),
        tracer=tracer,
    )
    items = make_items(mix, ops, accounts, hotspot_fraction)
    state, responses, stats = engine.run_workload(items)
    ref_state, ref_responses = token.run(
        [(item.pid, item.operation) for item in items]
    )
    assert state == ref_state, "engine diverged from the sequential spec"
    assert responses == ref_responses, "engine responses diverged"
    return engine, stats


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    """The full experiment: serial vs sharded per mix, plus hot-spot skew
    (the traced run already happened, under ``tracer``)."""
    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "serial_lanes": SERIAL_LANES,
            "sharded_lanes": SHARDED_LANES,
            "seed": SEED,
        },
        "mixes": {},
    }
    for name, mix in MIXES.items():
        serial_engine, serial = run_engine(mix, SERIAL_LANES, ops)
        sharded_engine, sharded = run_engine(mix, SHARDED_LANES, ops)
        classifier = sharded_engine.classifier.stats
        audit = audit_static_kinds(make_token(), make_items(mix, ops), WINDOW)
        results["mixes"][name] = {
            "serial": {
                "throughput": serial.throughput,
                "virtual_time": serial.virtual_time,
            },
            "sharded": sharded.as_dict(),
            "speedup": (
                serial.virtual_time / sharded.virtual_time
                if sharded.virtual_time
                else 1.0
            ),
            "conflict_rate": (
                classifier.by_kind.get("conflict", 0) / audit.pairs
                if audit.pairs
                else 0.0
            ),
            "classifier": classifier.as_dict(),
            "oracle": {
                "pairs": audit.pairs,
                "conflict_precision": audit.conflict_precision,
                "violations": len(audit.violations),
            },
        }
    # Hot-spot skew: contention knob on the conflict-free mixes.
    for mix_name, mix in (
        ("owner_only", OWNER_ONLY_MIX), ("read_heavy", READ_HEAVY_MIX)
    ):
        for fraction in (0.0, 0.6):
            engine, stats = run_engine(
                mix, SHARDED_LANES, ops, hotspot_fraction=fraction
            )
            results.setdefault("hotspot", {})[
                f"{mix_name}_fraction_{fraction}"
            ] = {
                "throughput": stats.throughput,
                "speedup": stats.speedup,
                "escalated_ops": stats.escalated_ops,
            }
    # Per-op commit latency (submit -> commit) is the traced run's, which
    # run_bench already made under ``tracer``; the runs above are untraced.
    results["op_latency"] = {
        "sharded_engine": tracer.metrics.histogram("op_latency").summary()
    }
    probe_accounts(ops)
    return results


def probe_accounts(ops: int) -> None:
    """Print host µs per op of the engine on the spender mix
    (``spender_pool=4``) at each of :data:`PROBE_ACCOUNTS`: the best of
    three untraced runs of the same items, each checked against the
    sequential specification."""
    costs = []
    for accounts in PROBE_ACCOUNTS:
        token = make_token(accounts)
        items = TokenWorkloadGenerator(
            accounts, seed=SEED, mix=SPENDER_HEAVY_MIX, spender_pool=4
        ).generate(ops)
        expected = token.run([(item.pid, item.operation) for item in items])
        best = float("inf")
        for _ in range(3):
            engine = PipelinedExecutor(
                token,
                EngineConfig(
                    num_lanes=SHARDED_LANES, window=PROBE_WINDOW, seed=SEED
                ),
            )
            start = time.perf_counter()
            state, responses, _ = engine.run_workload(items)
            best = min(best, time.perf_counter() - start)
            assert (state, responses) == expected, "probe diverged"
        costs.append(f"{accounts} accounts {1e6 * best / ops:.1f}")
    print(f"spender mix, host us/op (not gated): {', '.join(costs)}")


def check_claims(results: dict) -> None:
    """The acceptance criteria, enforced."""
    owner = results["mixes"]["owner_only"]
    # Sharded beats serial on the consensus-number-1 workload ...
    assert owner["speedup"] > 1.2, f"no speedup: {owner['speedup']:.2f}"
    # ... with zero consensus traffic.
    assert owner["sharded"]["escalated_ops"] == 0
    assert owner["sharded"]["escalation_messages"] == 0
    # Approval-heavy traffic pays for its races, and reports them.
    approval = results["mixes"]["approval_heavy"]
    assert approval["conflict_rate"] > 0.0
    assert approval["sharded"]["escalated_ops"] > 0
    assert approval["sharded"]["escalation_messages"] > 0
    # The static rule kept the soundness contract on every pair of every
    # window the engine planned.
    ops, window = results["params"]["ops"], results["params"]["window"]
    sizes = [min(window, ops - start) for start in range(0, ops, window)]
    for name, mix_result in results["mixes"].items():
        oracle = mix_result["oracle"]
        assert oracle["violations"] == 0, name
        assert oracle["pairs"] == sum(n * (n - 1) // 2 for n in sizes), name


def render_table(results: dict) -> list[str]:
    lines = [
        "E9: commutativity-aware engine vs serial execution "
        f"({results['params']['ops']} ops, {ACCOUNTS} accounts, "
        f"{SHARDED_LANES} lanes, virtual time)",
    ]
    lines += render_stats_table(
        list(results["mixes"].items()),
        [
            ("serial op/t", "serial.throughput", ".3f"),
            ("sharded op/t", "sharded.throughput", ".3f"),
            ("speedup", "speedup", ".2f"),
            ("conflict%", "conflict_rate", ".2%"),
            ("escal%", "sharded.escalation_rate", ".2%"),
            ("msgs", "sharded.escalation_messages", "d"),
        ],
        label_header="mix",
        separators=(2,),
    )
    lines.append("")
    lines.append("hot-spot skew (2 hot accounts):")
    for key, r in results.get("hotspot", {}).items():
        lines.append(
            f"{key:>26} | throughput {r['throughput']:>7.3f} "
            f"speedup {r['speedup']:>5.2f}"
        )
    latency = results["op_latency"]["sharded_engine"]
    lines.append("")
    lines.append(
        f"op commit latency (sharded engine, default mix): "
        f"p50 {latency['p50']:.2f}  p99 {latency['p99']:.2f}  "
        f"mean {latency['mean']:.2f}  over {latency['count']} ops"
    )
    rejected = sum(
        r["sharded"].get("rejected_ops", 0)
        for r in results["mixes"].values()
    )
    lines += render_backpressure(
        rejected, "submissions rejected by bounded mempools"
    )
    return lines


def traced_run(ops: int, tracer) -> None:
    """The representative traced configuration (``--trace``): the default
    mix on the sharded engine, spans and makespan attribution recorded."""
    run_engine(WorkloadMix(), SHARDED_LANES, ops, tracer=tracer)


# ---------------------------------------------------------------------------
# pytest-benchmark entry points (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_engine_scaling(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(600, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E9_engine", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_engine.json)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_engine.json",
        smoke_ops=400,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
    )


if __name__ == "__main__":
    sys.exit(main())
