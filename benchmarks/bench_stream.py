"""E12 — open-loop saturation: offered load vs latency SLOs.

Every other bench is closed-loop: the whole workload is fed at virtual
time zero and the drain is measured.  Production token traffic is an
*open loop* — operations arrive on their own Poisson/bursty schedule
whether or not the system keeps up — and a saturating system looks fine
in aggregate long after its tail windows have collapsed.  This bench
drives timed Zipf-skewed arrivals (:mod:`repro.workloads.arrivals`)
into three layers:

* the **engine, one window in flight**
  (:class:`repro.engine.PipelinedExecutor` at ``pipeline_depth=1``),
* the **pipelined engine** (the same executor, four windows in flight),
* the **cluster** (:class:`repro.cluster.TokenCluster`),

each at two offered-load levels calibrated against its own measured
closed-loop capacity: ``lo`` (well under capacity — latency must stay
bounded) and ``hi`` (well over — the queue grows without bound, and the
achieved throughput *is* the saturation throughput).  Each driven run
is traced; per-window commit counts and latency percentiles come from a
:class:`repro.obs.TimeSeries` (each committed op's latency filed under
the window its commit falls in), and an :class:`repro.obs.SLOMonitor`
turns the windows into a verdict: the ``lo`` run holds a p99 objective
the ``hi`` run must visibly burn through.  The claims check that every
admitted op lands in exactly one window.

Latency is commit − arrival on the virtual timeline; there is no wall
clock anywhere.

Standalone (writes ``BENCH_stream.json``, used by CI)::

    PYTHONPATH=src python benchmarks/bench_stream.py --smoke
"""

from __future__ import annotations

import functools
import sys

from common import bench_main, render_stats_table, run_bench
from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import SLOMonitor, TimeSeries, TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    StreamDriver,
    TokenWorkloadGenerator,
    WorkloadMix,
    poisson_arrivals,
)

SEED = 29
ACCOUNTS = 48
WINDOW = 32
LANES = 8
PIPELINE_DEPTH = 4
CLUSTER_NODES = 4
CLUSTER_LANES = 4
#: Heavy-tailed account popularity (Victor & Lüders [27]) — the skew
#: knob lives in the workload generator, orthogonal to arrival timing.
ZIPF_S = 0.9
#: Offered-load multipliers over each layer's measured capacity.
LEVELS = {"lo": 0.6, "hi": 2.5}
#: Virtual-time windows per driven run (width = makespan / WINDOWS).
WINDOWS = 12
#: Per-window p99 objective: this multiple of the lo run's overall p99.
SLO_MARGIN = 3.0
SLO_HORIZON = 8
SLO_BUDGET = 0.25

#: The three driven layers, in table order.
LAYERS = ("engine", "pipelined", "cluster")
#: The driven run that is the bench's representative trace.
TRACED = ("pipelined", "hi")

#: The gate's headline metrics (see ``bench_engine.HEADLINES``).
HEADLINES = {
    "band": [
        "layers.engine.capacity",
        "layers.engine.levels.hi.throughput",
        "layers.engine.levels.hi.latency.p99",
        "layers.pipelined.capacity",
        "layers.pipelined.levels.hi.throughput",
        "layers.pipelined.levels.hi.latency.p99",
        "layers.cluster.capacity",
        "layers.cluster.levels.hi.throughput",
        "layers.cluster.levels.lo.latency.p99",
        "layers.cluster.levels.hi.slo.breach_windows",
    ],
    "zero": [
        "layers.engine.levels.lo.stream.dropped",
        "layers.pipelined.levels.lo.stream.dropped",
        "layers.cluster.levels.lo.stream.dropped",
    ],
}


def make_items(ops: int):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=SEED, mix=WorkloadMix(), zipf_s=ZIPF_S
    ).generate(ops)


def make_target(layer: str, tracer: TraceRecorder | None = None):
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    if layer in ("engine", "pipelined"):
        return PipelinedExecutor(
            token,
            EngineConfig(
                pipeline_depth=1 if layer == "engine" else PIPELINE_DEPTH,
                num_lanes=LANES,
                window=WINDOW,
                seed=SEED,
            ),
            tracer=tracer,
        )
    if layer == "cluster":
        return TokenCluster(
            token,
            ClusterConfig(
                num_nodes=CLUSTER_NODES,
                lanes_per_node=CLUSTER_LANES,
                window=WINDOW,
                seed=SEED,
            ),
            tracer=tracer,
        )
    raise ValueError(f"unknown layer {layer!r}")


@functools.cache
def closed_loop_capacity(layer: str, ops: int) -> float:
    """The layer's drain throughput (ops per virtual-time unit) on the
    same workload, fed all at once — the saturation reference the
    offered-load levels are calibrated against."""
    target = make_target(layer)
    _, _, stats = target.run_workload(make_items(ops))
    return stats.throughput


def drive(layer: str, rate: float, ops: int, tracer: TraceRecorder):
    """One driven run at ``rate`` offered ops per virtual-time unit,
    recorded by ``tracer``; returns the driver's report."""
    target = make_target(layer, tracer=tracer)
    arrivals = poisson_arrivals(make_items(ops), rate, seed=SEED)
    return StreamDriver(target, arrivals).run()


def level_entry(
    rate: float, report, tracer: TraceRecorder
) -> tuple[dict, TimeSeries]:
    """A driven run's result dict (sans SLO verdict) and its series."""
    width = max(1.0, tracer.makespan / WINDOWS)
    series = TimeSeries.from_trace(tracer, width)
    committed = tracer.metrics.counter("ops_committed").value
    entry = {
        "offered_rate": rate,
        "stream": report.as_dict(),
        "throughput": committed / report.makespan,
        "latency": tracer.metrics.histogram("op_latency").summary(),
        "width": series.width,
        "windows": series.window_count,
        "window_committed": series.committed(),
        "window_p50": series.percentile(0.5),
        "window_p99": series.percentile(0.99),
    }
    return entry, series


def measure(ops: int, tracer: TraceRecorder, traced) -> dict:
    results: dict = {
        "params": {
            "ops": ops,
            "accounts": ACCOUNTS,
            "window": WINDOW,
            "lanes": LANES,
            "pipeline_depth": PIPELINE_DEPTH,
            "cluster_nodes": CLUSTER_NODES,
            "zipf_s": ZIPF_S,
            "levels": dict(LEVELS),
            "windows": WINDOWS,
            "slo_margin": SLO_MARGIN,
            "slo_horizon": SLO_HORIZON,
            "slo_budget": SLO_BUDGET,
            "seed": SEED,
        },
        "layers": {},
    }
    for layer in LAYERS:
        capacity = closed_loop_capacity(layer, ops)
        runs: dict[str, tuple[dict, TimeSeries]] = {}
        for level, multiplier in LEVELS.items():
            rate = multiplier * capacity
            if (layer, level) == TRACED:
                # run_bench already drove this one, under ``tracer``.
                recorder, report = tracer, traced
            else:
                recorder = TraceRecorder()
                report = drive(layer, rate, ops, recorder)
            runs[level] = level_entry(rate, report, recorder)
        # The objective is calibrated off the underloaded run: hold a
        # per-window p99 within SLO_MARGIN of lo's overall p99.  The
        # same target judges both levels, so the hi run's verdict is a
        # saturation signal, not a moved goalpost.
        target_p99 = max(1.0, SLO_MARGIN * runs["lo"][0]["latency"]["p99"])
        monitor = SLOMonitor(
            target_p99, horizon=SLO_HORIZON, budget=SLO_BUDGET
        )
        levels = {}
        for level, (entry, series) in runs.items():
            entry["slo"] = monitor.scan(series).as_dict()
            levels[level] = entry
        results["layers"][layer] = {
            "capacity": capacity,
            "slo_target_p99": target_p99,
            "levels": levels,
        }
    return results


def check_claims(results: dict) -> None:
    """The acceptance criteria, enforced."""
    for layer in LAYERS:
        entry = results["layers"][layer]
        assert entry["capacity"] > 0, layer
        lo = entry["levels"]["lo"]
        hi = entry["levels"]["hi"]
        # Underloaded: every arrival is admitted (no backpressure), and
        # the system keeps up with the offered rate.
        assert lo["stream"]["dropped"] == 0, layer
        assert lo["stream"]["admitted"] == lo["stream"]["offered"], layer
        # Overloaded: achieved throughput saturates strictly below the
        # offered rate — that ceiling is the saturation throughput.
        assert hi["throughput"] < 0.95 * hi["offered_rate"], layer
        # Saturation shows up as latency: the overloaded tail dwarfs the
        # underloaded one, and the SLO calibrated on lo burns out on hi.
        assert hi["latency"]["p99"] > lo["latency"]["p99"], layer
        assert not hi["slo"]["met"], layer
        assert (
            hi["slo"]["breach_windows"] > lo["slo"]["breach_windows"]
        ), layer
        # The windowed views are present and shaped consistently, and
        # conserve the run: every admitted op commits in exactly one
        # window.
        for level in (lo, hi):
            assert level["windows"] >= 2, layer
            assert (
                sum(level["window_committed"]) == level["stream"]["admitted"]
            ), layer
            for key in ("window_committed", "window_p50", "window_p99"):
                assert len(level[key]) == level["windows"], layer


#: Eight-level block ramp for the per-window sparklines.
SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"


def sparkline(values: list[float]) -> str:
    """Render ``values`` as unicode block bars, scaled to their peak."""
    peak = max(values, default=0.0)
    if peak <= 0:
        return " " * len(values)
    top = len(SPARK_BLOCKS) - 1
    return "".join(
        SPARK_BLOCKS[round(value / peak * top)] for value in values
    )


def render_table(results: dict) -> list[str]:
    params = results["params"]
    lines = [
        "E12: open-loop saturation sweep "
        f"({params['ops']} ops, {params['accounts']} accounts, "
        f"zipf s={params['zipf_s']}, Poisson arrivals, virtual time)",
    ]
    lines += render_stats_table(
        [
            (f"{layer} {level}", results["layers"][layer]["levels"][level])
            for layer in LAYERS
            for level in LEVELS
        ],
        [
            ("offered op/t", "offered_rate", ".3f"),
            ("achieved op/t", "throughput", ".3f"),
            ("dropped", "stream.dropped", "d"),
            ("p50", "latency.p50", ".2f"),
            ("p99", "latency.p99", ".2f"),
            ("breaches", "slo.breach_windows", "d"),
            ("max burn", "slo.max_burn", ".2f"),
        ],
        label_header="layer / load",
        separators=(2,),
    )
    for layer in LAYERS:
        entry = results["layers"][layer]
        lines.append("")
        lines.append(
            f"{layer}: capacity {entry['capacity']:.3f} op/t, "
            f"SLO p99 <= {entry['slo_target_p99']:.2f} per window "
            f"(budget {params['slo_budget']:.0%} of "
            f"{params['slo_horizon']} windows)"
        )
        for level in LEVELS:
            run = entry["levels"][level]
            lines.append(
                f"  {level} committed/window "
                f"|{sparkline(run['window_committed'])}| "
                f"peak {max(run['window_committed']):.0f}"
            )
            lines.append(
                f"  {level} p99/window       "
                f"|{sparkline(run['window_p99'])}| "
                f"peak {max(run['window_p99']):.1f}"
            )
    return lines


def traced_run(ops: int, tracer):
    """The representative traced configuration (``--trace``): the
    pipelined engine driven well past saturation — queue growth shows up
    as an ever-wider gap between the ``submit`` instants and the lane
    spans draining them.  Returns the driver's report."""
    layer, level = TRACED
    rate = LEVELS[level] * closed_loop_capacity(layer, ops)
    return drive(layer, rate, ops, tracer)


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (collected by `pytest benchmarks/`)
# ---------------------------------------------------------------------------


def test_stream_saturation(benchmark, write_table):
    results = benchmark.pedantic(
        lambda: run_bench(400, measure, traced_run), rounds=1, iterations=1
    )
    check_claims(results)
    write_table("E12_stream", render_table(results))


# ---------------------------------------------------------------------------
# standalone smoke entry point (used by CI; writes BENCH_stream.json)
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    return bench_main(
        argv,
        description=__doc__,
        default_out="BENCH_stream.json",
        smoke_ops=240,
        headlines=HEADLINES,
        measure=measure,
        check_claims=check_claims,
        render_table=render_table,
        traced_run=traced_run,
        default_ops=800,
    )


if __name__ == "__main__":
    sys.exit(main())
