#!/usr/bin/env python3
"""Streaming quickstart: drive an open-loop arrival stream, window it.

Every other example feeds its workload at virtual time zero; this one
opens the loop.  A Poisson arrival process stamps a Zipf-skewed ERC20
workload with seeded arrival times, a :class:`repro.workloads.
StreamDriver` feeds it into the pipelined engine at ~2.5x the engine's
measured capacity, and ``TimeSeries.from_trace`` windows the finished
trace: each committed op's latency lands in the window its commit falls
in, so the per-window commit counts sum to the run's commits.  An
:class:`repro.obs.SLOMonitor` turns the windows into a verdict: under
sustained overload the per-window p99 climbs without bound, so the
error budget burns out and ``report.met`` flips false.

Latency is commit − arrival in virtual time; no wall clock anywhere.

Run:  python examples/stream_quickstart.py
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import SLOMonitor, TimeSeries, TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    StreamDriver,
    TokenWorkloadGenerator,
    poisson_arrivals,
)

RULE = "=" * 72
BLOCKS = " ▁▂▃▄▅▆▇█"

ACCOUNTS = 48
OPS = 320
OVERLOAD = 2.5


def sparkline(values: list[float]) -> str:
    peak = max(values, default=0.0)
    if peak <= 0:
        return " " * len(values)
    top = len(BLOCKS) - 1
    return "".join(BLOCKS[round(v / peak * top)] for v in values)


def make_engine(tracer: TraceRecorder | None = None) -> PipelinedExecutor:
    token = ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)
    return PipelinedExecutor(
        token,
        EngineConfig(num_lanes=8, pipeline_depth=4, seed=29),
        tracer=tracer,
    )


def make_items(ops: int):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=29, zipf_s=0.9
    ).generate(ops)


def main() -> None:
    print(RULE)
    print("open-loop streaming quickstart: arrivals, windows, SLOs")
    print(RULE)

    # Closed-loop capacity first: the saturation reference.
    _, _, closed = make_engine().run_workload(make_items(OPS))
    capacity = closed.throughput
    rate = OVERLOAD * capacity
    print(f"\nclosed-loop capacity {capacity:.3f} op/t; offering "
          f"{rate:.3f} op/t ({OVERLOAD}x — a sustained overload)")

    # Drive the stream with a recorder attached.
    tracer = TraceRecorder()
    engine = make_engine(tracer=tracer)
    arrivals = poisson_arrivals(make_items(OPS), rate, seed=29)
    report = StreamDriver(engine, arrivals).run()
    print(f"offered {report.offered}, admitted {len(report.admitted)}, "
          f"dropped {report.dropped}; drained at t={report.makespan:.1f} "
          f"(last arrival t={arrivals[-1].time:.1f})")
    achieved = len(report.admitted) / report.makespan
    print(f"achieved {achieved:.3f} op/t — the saturation throughput; "
          f"the other {rate - achieved:.3f} op/t became queueing delay")

    # Window the finished trace: every commit lands in exactly one window.
    post = TimeSeries.from_trace(tracer, 12.0)
    committed = post.committed()
    print(f"\n{post.window_count} windows of {post.width:g} vt hold all "
          f"{sum(committed):.0f} commits")
    p99s = post.percentile(0.99)
    print(f"  committed/window |{sparkline(committed)}| "
          f"peak {max(committed):.0f}")
    print(f"  p99/window       |{sparkline(p99s)}| peak {max(p99s):.1f}")

    # The verdict: a p99 objective sized for a healthy system, burned
    # through by the overload.
    monitor = SLOMonitor(target_p99=10.0, horizon=8, budget=0.25)
    verdict = monitor.scan(post, tracer=tracer)
    print(f"\nSLO p99 <= {monitor.target_p99:g}: "
          f"{len(verdict.breaches)} of {len(verdict.windows)} windows "
          f"breached, max burn {verdict.max_burn:.2f}x budget, "
          f"met={verdict.met}")
    print(f"breach instants recorded on the trace's 'slo' track: "
          f"{sum(1 for i in tracer.instants if i.track == 'slo')}")
    print(RULE)


if __name__ == "__main__":
    main()
