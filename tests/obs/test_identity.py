"""Attaching a tracer must not change a single observable output.

Every instrumentation site is guarded by ``if self.tracer is not None``;
these tests pin that contract by running the same workload with and
without a recorder and asserting final state, responses, and the full
stats dict are bit-identical — across the engine (team lanes on and off;
one, two and three windows in flight) and the cluster (one window in
flight and three).
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    TokenWorkloadGenerator,
)

ACCOUNTS = 48
OPS = 256


def make_items(mix):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=11, mix=mix
    ).generate(OPS)


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


def _engine(**knobs):
    return lambda tracer: PipelinedExecutor(
        make_token(),
        EngineConfig(num_lanes=4, seed=11, **knobs),
        tracer=tracer,
    )


def _cluster(**knobs):
    return lambda tracer: TokenCluster(
        make_token(),
        ClusterConfig(num_nodes=3, lanes_per_node=4, seed=11, **knobs),
        tracer=tracer,
    )


CONFIGS = [
    ("engine", APPROVAL_HEAVY_MIX, _engine()),
    ("engine_global", APPROVAL_HEAVY_MIX, _engine(team_threshold=0)),
    ("pipelined_d1", CHAIN_HEAVY_MIX, _engine(pipeline_depth=1)),
    ("pipelined_d3", APPROVAL_HEAVY_MIX, _engine(pipeline_depth=3)),
    ("cluster_d1", APPROVAL_HEAVY_MIX, _cluster(pipeline_depth=1)),
    ("cluster_d3", CHAIN_HEAVY_MIX, _cluster(pipeline_depth=3)),
]


@pytest.mark.parametrize(
    "label,mix,build", CONFIGS, ids=[label for label, _, _ in CONFIGS]
)
def test_tracer_leaves_every_output_bit_identical(label, mix, build):
    items = make_items(mix)
    bare_state, bare_responses, bare_stats = build(None).run_workload(
        items
    )
    tracer = TraceRecorder()
    traced_state, traced_responses, traced_stats = build(
        tracer
    ).run_workload(items)

    assert tracer.spans, "the traced run recorded nothing"
    assert traced_state == bare_state
    assert traced_responses == bare_responses
    assert traced_stats.as_dict() == bare_stats.as_dict()


@pytest.mark.parametrize(
    "label,mix,build", CONFIGS, ids=[label for label, _, _ in CONFIGS]
)
def test_live_series_watch_hook_leaves_outputs_bit_identical(
    label, mix, build
):
    """The registry watch hook (and a TimeSeries derived through it) is
    a pure reader like the tracer itself: subscribing must not change a
    single observable output, and the windows it collects must conserve
    the registry totals."""
    from repro.obs import TimeSeries

    items = make_items(mix)
    bare_state, bare_responses, bare_stats = build(None).run_workload(
        items
    )
    tracer = TraceRecorder()
    series = TimeSeries(width=25.0).attach(tracer.metrics)
    watched_state, watched_responses, watched_stats = build(
        tracer
    ).run_workload(items)

    assert watched_state == bare_state
    assert watched_responses == bare_responses
    assert watched_stats.as_dict() == bare_stats.as_dict()
    series.check()
    assert sum(series.counter_series("ops_committed")) == len(items)
