"""E10 — the distributed cluster: scale-out from shard ownership.

Compares, in virtual time (network latency + operation units + simulated
consensus latency), three ways of serving the same token workload:

* **single-node engine** (``repro.engine``): 8 lanes, no network;
* **N-node cluster** (``repro.cluster``): 8 lanes *per node*, every
  operation paying its real message cost — point-to-point forwards, lease
  handoffs for cross-shard chains, the shared total-order lane for
  contended cross-node conflicts;
* **all-consensus baseline**: every operation sequenced by the
  leader-based total order before executing serially — the blockchain
  discipline the paper argues is unnecessary for most token traffic.

Workloads: owner-local traffic (each operation confined to one node's
shards — the zero-coordination regime), the OWNER_ONLY and default and
SPENDER_HEAVY mixes, plus a contention sweep over the Zipf / hot-spot
skew knobs.  Every cluster run is checked for serial equivalence against
the sequential specification.

Standalone (writes ``BENCH_cluster.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_cluster.py --smoke
"""

from __future__ import annotations

import sys

from common import (
    bench_main,
    render_backpressure,
    render_stats_table,
    run_bench,
)
from repro.cluster import TokenCluster, owner_local_workload
from repro.config import ClusterConfig, EngineConfig
from repro.obs import TraceRecorder
from repro.engine import PipelinedExecutor
from repro.net import TeamLane
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    WorkloadMix,
)

SEED = 23
ACCOUNTS = 256
WINDOW = 128
LANES = 8
NODE_COUNTS = (2, 4, 8)

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
}

#: Pure query traffic for the skew sweep: a balance-query storm on a hot
#: account is one huge *commuting* bundle (reads conflict with nothing),
#: exactly what hot-shard splitting exists to spread — with any transfer
#: admixture the hot account's reads chain onto its transfers instead.
QUERY_STORM_MIX = WorkloadMix(
    transfer=0.0,
    transfer_from=0.0,
    approve=0.0,
    balance_of=0.95,
    allowance=0.0,
    total_supply=0.05,
)

#: The gate's headline metrics (see ``bench_engine.HEADLINES``).
HEADLINES = {
    "band": [
        "mixes.owner_only.cluster.4.makespan",
        "mixes.owner_only.cluster.4.throughput",
        "mixes.owner_only.cluster.4.cluster_messages",
        "mixes.spender_heavy.cluster.4.escalation_rate",
        "mixes.spender_heavy.cluster.4.escalation_messages",
        "mixes.default.cluster.4.lease_migrations",
        "owner_local.4.makespan",
        "op_latency.cluster_4.p50",
        "op_latency.cluster_4.p99",
    ],
    "zero": [
        "owner_local.4.escalation_messages",
        "owner_local.4.lease_migrations",
    ],
}


def make_token() -> ERC20TokenType:
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def make_items(
    mix,
    ops: int,
    zipf_s: float = 0.0,
    hotspot: float = 0.0,
    hotspot_accounts: int = 2,
):
    return TokenWorkloadGenerator(
        ACCOUNTS,
        seed=SEED,
        mix=mix,
        zipf_s=zipf_s,
        hotspot_fraction=hotspot,
        hotspot_accounts=hotspot_accounts,
    ).generate(ops)


def run_engine(items) -> dict:
    token = make_token()
    engine = PipelinedExecutor(
        token, EngineConfig(num_lanes=LANES, window=WINDOW, seed=SEED)
    )
    _, _, stats = engine.run_workload(items)
    return {
        "virtual_time": stats.virtual_time,
        "throughput": stats.throughput,
        "escalation_messages": stats.escalation_messages,
    }


def run_cluster(
    items, nodes: int, tracer: TraceRecorder | None = None
) -> TokenCluster:
    """One cluster run, serial-equivalence-checked against the spec."""
    token = make_token()
    cluster = TokenCluster(
        token,
        ClusterConfig(
            num_nodes=nodes, lanes_per_node=LANES, window=WINDOW, seed=SEED
        ),
        tracer=tracer,
    )
    state, responses, _ = cluster.run_workload(items)
    ref_state, ref_responses = token.run(
        [(item.pid, item.operation) for item in items]
    )
    assert state == ref_state, "cluster diverged from the sequential spec"
    assert responses == ref_responses, "cluster responses diverged"
    return cluster


def run_all_consensus(items) -> dict:
    """Every operation through total order, then serial execution."""
    from repro.engine.mempool import Mempool

    token = make_token()
    lane = TeamLane(range(4), seed=SEED)
    mempool = Mempool()
    pending = mempool.feed(items)
    virtual_time = 0.0
    messages = 0
    while True:
        batch = mempool.pop_window(WINDOW)
        if not batch:
            break
        result = lane.order(batch)
        virtual_time += result.makespan
        messages += result.messages
    token.run([(op.pid, op.operation) for op in pending])
    virtual_time += len(pending) * 1.0  # serial execution, one op per unit
    return {
        "virtual_time": virtual_time,
        "throughput": len(pending) / virtual_time,
        "messages": messages,
    }


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "lanes_per_node": LANES,
            "node_counts": list(NODE_COUNTS),
            "seed": SEED,
        },
        "mixes": {},
        "owner_local": {},
        "skew": {},
    }

    # Owner-local traffic: the zero-coordination regime, per node count.
    for nodes in NODE_COUNTS:
        probe = TokenCluster(
            make_token(),
            ClusterConfig(num_nodes=nodes, lanes_per_node=LANES, window=WINDOW),
        )
        items = owner_local_workload(probe.shard_map, ACCOUNTS, ops, seed=SEED)
        cluster = run_cluster(items, nodes)
        results["owner_local"][str(nodes)] = cluster.stats.as_dict()

    # Mix comparison: engine vs cluster vs all-consensus.
    for name, mix in MIXES.items():
        items = make_items(mix, ops)
        engine = run_engine(items)
        entry = {
            "engine": engine,
            "all_consensus": run_all_consensus(items),
            "cluster": {},
        }
        for nodes in NODE_COUNTS:
            stats = run_cluster(items, nodes).stats
            entry["cluster"][str(nodes)] = stats.as_dict()
            entry["cluster"][str(nodes)]["speedup_vs_engine"] = (
                stats.throughput / engine["throughput"]
                if engine["throughput"]
                else 0.0
            )
        results["mixes"][name] = entry

    # Contention sweep: the Zipf / hot-spot knobs at a fixed node count.
    for zipf_s, hotspot in ((0.0, 0.0), (1.2, 0.0), (0.0, 0.6)):
        items = make_items(
            QUERY_STORM_MIX,
            ops,
            zipf_s=zipf_s,
            hotspot=hotspot,
            hotspot_accounts=1,
        )
        stats = run_cluster(items, 4).stats
        results["skew"][f"zipf_{zipf_s}_hot_{hotspot}"] = {
            "throughput": stats.throughput,
            "owner_local_rate": stats.owner_local_rate,
            "hot_split_ops": stats.hot_split_ops,
            "lease_migrations": stats.lease_migrations,
            "load_imbalance": stats.load_imbalance,
            "dropped_ops": stats.dropped_ops,
        }

    # Per-op commit latency (submit -> commit) is the traced run's, which
    # run_bench already made under ``tracer``; the runs above are untraced.
    results["op_latency"] = {
        "cluster_4": tracer.metrics.histogram("op_latency").summary()
    }
    return results


def check_claims(results: dict) -> None:
    """The acceptance criteria, enforced."""
    # Owner-local traffic: zero consensus, zero lease migrations, any N.
    for nodes, stats in results["owner_local"].items():
        assert stats["escalation_messages"] == 0, nodes
        assert stats["escalated_ops"] == 0, nodes
        assert stats["lease_migrations"] == 0, nodes
    owner = results["mixes"]["owner_only"]
    # The cluster beats the single-node engine at >= 4 nodes ...
    for nodes in ("4", "8"):
        assert owner["cluster"][nodes]["speedup_vs_engine"] > 1.0, (
            nodes,
            owner["cluster"][nodes]["speedup_vs_engine"],
        )
    # ... with zero consensus traffic on the consensus-number-1 mix ...
    assert owner["cluster"]["4"]["escalation_messages"] == 0
    # ... and dwarfs the all-consensus baseline.
    assert (
        owner["cluster"]["4"]["throughput"]
        > 5 * owner["all_consensus"]["throughput"]
    )
    # Spender traffic pays for its races — and only there.
    spender = results["mixes"]["spender_heavy"]["cluster"]["4"]
    assert spender["escalated_ops"] > 0
    assert spender["escalation_messages"] > 0
    assert spender["escalation_rate"] < 0.5  # most traffic still avoids it
    # Skewed traffic exercises hot-shard splitting.
    assert any(entry["hot_split_ops"] > 0 for entry in results["skew"].values())


def render_table(results: dict) -> list[str]:
    params = results["params"]
    lines = [
        "E10: cluster scale-out vs single-node engine vs all-consensus "
        f"({params['ops']} ops, {params['accounts']} accounts, "
        f"{params['lanes_per_node']} lanes/node, virtual time)",
    ]
    lines += render_stats_table(
        list(results["mixes"].items()),
        [("engine op/t", "engine.throughput", ".3f")]
        + [("consensus op/t", "all_consensus.throughput", ".3f")]
        + [
            (f"{n} nodes", f"cluster.{n}.throughput", ".3f")
            for n in NODE_COUNTS
        ],
        label_header="mix",
        separators=(1,),
    )
    lines.append("")
    lines.append("owner-local traffic (zero-coordination regime):")
    for nodes, stats in results["owner_local"].items():
        lines.append(
            f"  {nodes} nodes: throughput {stats['throughput']:>7.3f}  "
            f"owner-local {stats['owner_local_rate']:.0%}  "
            f"consensus msgs {stats['escalation_messages']}  "
            f"leases {stats['lease_migrations']}  "
            f"dropped {stats.get('dropped_ops', 0)}"
        )
    lines.append("")
    lines.append("skew sweep (query-storm mix, 4 nodes):")
    for key, entry in results["skew"].items():
        lines.append(
            f"  {key:>20}: throughput {entry['throughput']:>7.3f}  "
            f"hot-splits {entry['hot_split_ops']:>4}  "
            f"leases {entry['lease_migrations']:>4}  "
            f"imbalance {entry['load_imbalance']:.2f}"
        )
    dropped = (
        sum(
            entry["cluster"][str(n)].get("dropped_ops", 0)
            for entry in results["mixes"].values()
            for n in NODE_COUNTS
        )
        + sum(
            stats.get("dropped_ops", 0)
            for stats in results["owner_local"].values()
        )
        + sum(
            entry.get("dropped_ops", 0) for entry in results["skew"].values()
        )
    )
    lines += render_backpressure(
        dropped, "ops dropped at the router's admission edge"
    )
    latency = results["op_latency"]["cluster_4"]
    lines.append(
        f"op commit latency (default mix, 4 nodes): "
        f"p50 {latency['p50']:.2f}  p99 {latency['p99']:.2f}  "
        f"mean {latency['mean']:.2f}  over {latency['count']} ops"
    )
    return lines


def traced_run(ops: int, tracer) -> None:
    """The representative traced configuration (``--trace``): the default
    mix at 4 nodes, one track per node lane plus router and sync lanes."""
    run_cluster(make_items(WorkloadMix(), ops), 4, tracer)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_cluster_scaling(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(600, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E10_cluster", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_cluster.json)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_cluster.json",
        smoke_ops=512,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
    )


if __name__ == "__main__":
    sys.exit(main())
