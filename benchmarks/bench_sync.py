"""E11 — tiered synchronization lanes: pay k-consensus, not global consensus.

The paper's Theorems 2–4 price an ERC20 state by its largest enabled-
spender set: consensus number *k*, not *n*.  This experiment makes the
engine and cluster collect that discount (:mod:`repro.sync`) and compares,
in virtual time and messages, two ways of ordering the same contended
traffic:

* **always-global** (``team_threshold = 0``): every contended component
  through one total-order lane sized to all ``n`` processes — the
  blockchain discipline, ``O(n²)`` messages per batch behind a single
  sequencer;
* **tiered** (``team_threshold = K``): each contended component through a
  team lane among just its spender bound (``O(k²)`` messages, many teams
  concurrent), with the global lane kept only as the Tier ∞ fallback for
  unboundable or oversized components.

Workloads: ``APPROVAL_HEAVY_MIX`` with a bounded spender pool (mean
spender-set size ``k ≤ 4`` while ``n ≥ 16`` — the administrated-token
shape), a k-shared asset-transfer contract (static owner map, the [16]
object whose consensus number is exactly *k*), the multi-contract mix
(whose ERC721 stream exercises the Tier ∞ fallback), and a bounded-mempool
run surfacing backpressure drops.  Every run is checked for serial
equivalence against the sequential specification.

Standalone (writes ``BENCH_sync.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_sync.py --smoke
"""

from __future__ import annotations

import sys

from common import bench_main, render_stats_table, run_bench
from repro.cluster import ClusterConfig, TokenCluster
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import TraceRecorder
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    MultiContractWorkloadGenerator,
    TokenWorkloadGenerator,
    WorkloadItem,
    serial_reference,
    standard_multi_contract,
)

SEED = 23
#: n — the process/account count; the always-global lane is sized to it.
ACCOUNTS = 24
WINDOW = 16
LANES = 8
#: Spender pools bound every account's potential-spender set to <= 4.
SPENDER_POOL = 4
#: Largest team the tiered configuration provisions a lane for —
#: sourced from the config surface, not restated, so the bench always
#: measures the threshold the default engine actually ships with.
THRESHOLD = EngineConfig().team_threshold
CLUSTER_NODES = 4

#: The gate's headline metrics (see ``bench_engine.HEADLINES``).
HEADLINES = {
    "band": [
        "engine.global.escalation_messages",
        "engine.tiered.escalation_messages",
        "engine.tiered.virtual_time",
        "engine.tiered.escalation_rate",
        "cluster.global.makespan",
        "cluster.tiered.makespan",
        "multi_contract.tiered.messages",
        "op_latency.tiered_engine.p50",
        "op_latency.tiered_engine.p99",
    ],
    "zero": [],
}


def make_token() -> ERC20TokenType:
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def make_items(ops: int) -> list[WorkloadItem]:
    return TokenWorkloadGenerator(
        ACCOUNTS,
        seed=SEED,
        mix=APPROVAL_HEAVY_MIX,
        spender_pool=SPENDER_POOL,
    ).generate(ops)


def run_engine(object_type, items, threshold: int, tracer=None) -> dict:
    """One engine run with one window in flight (the sync phase is then
    on every round's critical path, which is what this bench prices),
    every other knob but the team threshold at its default,
    serial-equivalence-checked against the spec."""
    engine = PipelinedExecutor(
        object_type,
        EngineConfig(
            num_lanes=LANES,
            window=WINDOW,
            seed=SEED,
            team_threshold=threshold,
            pipeline_depth=1,
        ),
        replicas=ACCOUNTS,
        tracer=tracer,
    )
    state, responses, stats = engine.run_workload(items)
    ref_state, ref_responses = serial_reference(object_type, items)
    assert state == ref_state, "engine diverged from the sequential spec"
    assert responses == ref_responses, "engine responses diverged"
    return stats.as_dict()


def run_cluster(items, threshold: int) -> dict:
    token = make_token()
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=CLUSTER_NODES,
            lanes_per_node=LANES,
            window=WINDOW,
            seed=SEED,
            team_threshold=threshold,
        ),
    )
    state, responses, stats = cluster.run_workload(items)
    ref_state, ref_responses = serial_reference(make_token(), items)
    assert state == ref_state, "cluster diverged from the sequential spec"
    assert responses == ref_responses, "cluster responses diverged"
    return stats.as_dict()


def run_shared_asset(ops: int, threshold: int) -> dict:
    """A k-shared asset transfer [16]: static owner teams of size 3."""
    groups = [
        frozenset(
            {pid for pid in range(base, min(base + 3, ACCOUNTS))}
        )
        for base in range(0, ACCOUNTS, 3)
    ]
    owner_map = [groups[account // 3] for account in range(ACCOUNTS)]
    factory = lambda: AssetTransferType(  # noqa: E731
        [50] * ACCOUNTS, owner_map=owner_map, num_processes=ACCOUNTS
    )
    import random

    rng = random.Random(SEED)
    items = []
    for _ in range(ops):
        pid = rng.randrange(ACCOUNTS)
        # Transfers from an account of the caller's own owner group: the
        # shared accounts are genuinely k-shared, k = 3.
        base = (pid // 3) * 3
        source = base + rng.randrange(min(3, ACCOUNTS - base))
        from repro.spec.operation import Operation

        items.append(
            WorkloadItem(
                pid=pid,
                operation=Operation(
                    "transfer",
                    (source, rng.randrange(ACCOUNTS), rng.randint(0, 5)),
                ),
            )
        )
    return run_engine(factory(), items, threshold)


def run_multi_contract(ops: int, threshold: int) -> dict:
    """The three-contract mix, one engine per contract (hot-spot skew so
    the ERC721 stream races on a few tokens and must use Tier ∞)."""
    object_types, generator = standard_multi_contract(
        ACCOUNTS, seed=SEED, hotspot_fraction=0.4
    )
    per_contract = MultiContractWorkloadGenerator.split(generator.generate(ops))
    summary = {"messages": 0, "virtual_time": 0.0, "contracts": {}}
    for name, items in sorted(per_contract.items()):
        stats = run_engine(object_types[name], items, threshold)
        summary["contracts"][name] = {
            "ops": stats["ops_executed"],
            "escalation_messages": stats["escalation_messages"],
            "team_ops": stats["team_ops"],
            "global_ops": stats["global_ops"],
            "virtual_time": stats["virtual_time"],
        }
        summary["messages"] += stats["escalation_messages"]
        summary["virtual_time"] += stats["virtual_time"]
    return summary


def run_backpressure(ops: int) -> dict:
    """A bounded router mempool under the same mix: drops must surface."""
    capacity = max(8, ops // 8)
    token = make_token()
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=CLUSTER_NODES,
            lanes_per_node=LANES,
            window=WINDOW,
            seed=SEED,
            team_threshold=THRESHOLD,
            mempool_capacity=capacity,
        ),
    )
    items = make_items(ops)
    admitted = cluster.router.admit(items)
    cluster.run()
    stats = cluster.stats.as_dict()
    return {
        "capacity": capacity,
        "submitted": len(items),
        "admitted": len(admitted),
        "dropped_ops": stats["dropped_ops"],
        "ops_executed": stats["ops_executed"],
    }


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    items = make_items(ops)
    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "lanes": LANES,
            "spender_pool": SPENDER_POOL,
            "team_threshold": THRESHOLD,
            "cluster_nodes": CLUSTER_NODES,
            "seed": SEED,
        },
        "engine": {
            "global": run_engine(make_token(), items, 0),
            "tiered": run_engine(make_token(), items, THRESHOLD),
        },
        "threshold_sweep": {},
        "cluster": {
            "global": run_cluster(items, 0),
            "tiered": run_cluster(items, THRESHOLD),
        },
        "shared_asset": {
            "global": run_shared_asset(ops // 2, 0),
            "tiered": run_shared_asset(ops // 2, THRESHOLD),
        },
        "multi_contract": {
            "global": run_multi_contract(ops, 0),
            "tiered": run_multi_contract(ops, THRESHOLD),
        },
        "backpressure": run_backpressure(ops),
    }
    for threshold in (0, 2, 4, 8):
        stats = run_engine(make_token(), items, threshold)
        results["threshold_sweep"][str(threshold)] = {
            "escalation_messages": stats["escalation_messages"],
            "team_ops": stats["team_ops"],
            "global_ops": stats["global_ops"],
            "virtual_time": stats["virtual_time"],
            "mean_team_size": stats["mean_team_size"],
        }
    # Per-op commit latency (submit -> commit) is the traced run's, which
    # run_bench already made under ``tracer``; the runs above are untraced.
    results["op_latency"] = {
        "tiered_engine": tracer.metrics.histogram("op_latency").summary()
    }
    return results


def check_claims(results: dict) -> None:
    """The acceptance criteria, enforced."""
    assert results["params"]["accounts"] >= 16  # n >= 16 processes
    tiered = results["engine"]["tiered"]
    always_global = results["engine"]["global"]
    # The tiered engine actually uses team lanes, sized k <= 4 on average
    # (the workload's spender pools guarantee the bound).
    assert tiered["team_ops"] > 0
    assert 0 < tiered["mean_team_size"] <= SPENDER_POOL
    # Strictly lower message bill AND virtual-time makespan than paying
    # global consensus for every contended component.
    assert tiered["escalation_messages"] < always_global["escalation_messages"]
    assert tiered["virtual_time"] < always_global["virtual_time"]
    # The same discount holds distributed: owner-node team lanes beat the
    # shared lane on messages and end-to-end makespan.
    cluster_tiered = results["cluster"]["tiered"]
    cluster_global = results["cluster"]["global"]
    assert cluster_tiered["team_ops"] > 0
    assert (
        cluster_tiered["escalation_messages"]
        < cluster_global["escalation_messages"]
    )
    assert cluster_tiered["makespan"] < cluster_global["makespan"]
    # k-shared asset transfer: the static owner map is an exact bound, so
    # every team lane has exactly 3 participants (components chaining two
    # owner groups together exceed the threshold and legitimately fall
    # back to Tier ∞).
    shared = results["shared_asset"]["tiered"]
    if shared["escalated_ops"]:
        assert shared["team_ops"] > 0
        assert set(shared["k_histogram"]) == {"3"}
        assert shared["escalation_messages"] < (
            results["shared_asset"]["global"]["escalation_messages"]
        )
    # Multi-contract: the ERC721 stream has no static spender bound and
    # must fall back to Tier ∞ — and the mix still wins overall.
    multi_tiered = results["multi_contract"]["tiered"]
    assert multi_tiered["contracts"]["erc721"]["team_ops"] == 0
    assert multi_tiered["contracts"]["erc721"]["global_ops"] > 0
    assert multi_tiered["contracts"]["erc20"]["team_ops"] > 0
    assert (
        multi_tiered["messages"]
        < results["multi_contract"]["global"]["messages"]
    )
    # The threshold sweep is monotone at the endpoints: 0 = historical
    # always-global bill, the working threshold strictly cheaper.
    sweep = results["threshold_sweep"]
    assert (
        sweep["0"]["escalation_messages"]
        == always_global["escalation_messages"]
    )
    assert sweep["0"]["team_ops"] == 0
    # Backpressure is surfaced, never silent: drops are counted and the
    # executed+dropped ledger covers every submission.
    bp = results["backpressure"]
    assert bp["dropped_ops"] == bp["submitted"] - bp["admitted"]
    assert bp["ops_executed"] == bp["admitted"]


def render_table(results: dict) -> list[str]:
    params = results["params"]
    lines = [
        "E11: tiered sync lanes vs always-global escalation "
        f"({params['ops']} ops, n={params['accounts']} processes, "
        f"spender pools of {params['spender_pool']}, "
        f"threshold {params['team_threshold']}, virtual time)",
    ]
    lines += render_stats_table(
        [
            (f"{scope} {name}", results[scope][name])
            for scope in ("engine", "cluster")
            for name in ("global", "tiered")
        ],
        [
            ("sync msgs", "escalation_messages", "d"),
            ("virtual time", ("virtual_time", "makespan"), ".1f"),
            ("team ops", "team_ops", "d"),
            ("global ops", "global_ops", "d"),
            ("mean k", "mean_team_size", ".2f"),
        ],
        label_header="configuration",
    )
    lines.append("")
    lines.append("threshold sweep (engine, APPROVAL_HEAVY + spender pools):")
    for threshold, entry in results["threshold_sweep"].items():
        lines.append(
            f"  threshold {threshold:>2}: msgs {entry['escalation_messages']:>7}  "
            f"team/global {entry['team_ops']:>4}/{entry['global_ops']:<4}  "
            f"mean k {entry['mean_team_size']:.2f}  "
            f"vt {entry['virtual_time']:.1f}"
        )
    lines.append("")
    lines.append("k-shared asset transfer (owner teams of 3, [16]):")
    for name in ("global", "tiered"):
        stats = results["shared_asset"][name]
        lines.append(
            f"  {name:>7}: msgs {stats['escalation_messages']:>7}  "
            f"escalated {stats['escalated_ops']:>4}  "
            f"team/global {stats['team_ops']:>4}/{stats['global_ops']:<4}"
        )
    lines.append("")
    lines.append("multi-contract mix (per-contract engines):")
    for name in ("global", "tiered"):
        entry = results["multi_contract"][name]
        per = "  ".join(
            f"{contract}: {stats['escalation_messages']}m"
            f" ({stats['team_ops']}t/{stats['global_ops']}g)"
            for contract, stats in sorted(entry["contracts"].items())
        )
        lines.append(f"  {name:>7}: total {entry['messages']:>7} | {per}")
    latency = results["op_latency"]["tiered_engine"]
    lines.append("")
    lines.append(
        f"op commit latency (tiered engine, threshold "
        f"{params['team_threshold']}): "
        f"p50 {latency['p50']:.2f}  p99 {latency['p99']:.2f}  "
        f"mean {latency['mean']:.2f}  over {latency['count']} ops"
    )
    bp = results["backpressure"]
    lines.append("")
    lines.append(
        f"backpressure (router mempool capacity {bp['capacity']}): "
        f"{bp['submitted']} submitted, {bp['admitted']} admitted, "
        f"{bp['dropped_ops']} dropped, {bp['ops_executed']} executed"
    )
    return lines


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_tiered_sync(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(600, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E11_sync", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_sync.json)
# ---------------------------------------------------------------------------


def traced_run(ops: int, tracer) -> None:
    """The representative traced configuration (``--trace``): the tiered
    engine on the bounded-spender contended mix — team-lane batches show
    up as per-team sync tracks alongside the execution lanes."""
    run_engine(make_token(), make_items(ops), THRESHOLD, tracer)


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_sync.json",
        smoke_ops=500,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
    )


if __name__ == "__main__":
    sys.exit(main())
