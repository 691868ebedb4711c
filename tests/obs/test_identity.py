"""Attaching a tracer must not change a single observable output.

Every instrumentation site is guarded by ``if self.tracer is not None``;
these tests pin that contract by running the same workload with and
without a recorder and asserting final state, responses, and the full
stats dict are bit-identical — across the engine (team lanes on and off;
one, two and three windows in flight) and the cluster (one window in
flight and three).  Over the same runs, every total the recorder derives
from its span list is pinned, bit for bit, to a record-order fold.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import CATEGORIES, TraceRecorder
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


def record_order_fold(spans):
    """The occupancy accounting written out as a running fold over the
    spans in record order: busy time per (track, span category), stall
    time per (track, stall category) — a track entering the stall table
    at its first span that records a stall — and the last chained
    finish.  Category totals then add every busy entry, track by track,
    before every stall entry."""
    busy: dict[str, dict[str, float]] = {}
    stall: dict[str, dict[str, float]] = {}
    makespan = 0.0
    for span in spans:
        if not span.chain:
            continue
        if span.end > makespan:
            makespan = span.end
        per = busy.setdefault(span.track, {})
        per[span.category] = per.get(span.category, 0.0) + (
            span.end - span.start
        )
        if span.stalls:
            per = stall.setdefault(span.track, {})
            for category, amount in span.stalls:
                per[category] = per.get(category, 0.0) + amount
    totals: dict[str, float] = {}
    for per_track in (busy, stall):
        for per in per_track.values():
            for category, amount in per.items():
                totals[category] = totals.get(category, 0.0) + amount
    categories = {c: totals[c] for c in CATEGORIES if c in totals}
    return busy, stall, categories, makespan


@pytest.mark.parametrize(
    "label,mix,build", CONFIGS, ids=[label for label, _, _ in CONFIGS]
)
def test_derived_totals_equal_the_record_order_fold(label, mix, build):
    """Every total is derived from the span list by the same float
    additions, in the same order, as the fold above: ``==``, not
    ``approx`` — re-ordering the walk or summing per category first
    changes the low bits and fails here."""
    tracer = TraceRecorder()
    build(tracer).run_workload(make_items(mix))
    busy, stall, categories, makespan = record_order_fold(tracer.spans)
    assert tracer.busy_totals() == busy
    assert list(tracer.busy_totals()) == list(busy)
    assert tracer.stall_totals() == stall
    assert list(tracer.stall_totals()) == list(stall)
    assert tracer.category_totals() == categories
    assert list(tracer.category_totals()) == list(categories)
    assert tracer.makespan == makespan


def float_heavy_trace() -> TraceRecorder:
    """Spans whose sums depend on the order they are added in: random
    durations and stalls of four orders of magnitude on five tracks, with
    ``sync_wait`` both a span category and a stall category."""
    rng = random.Random(1)
    tracer = TraceRecorder()
    clock = {f"lane{i}": 0.0 for i in range(5)}

    def amount() -> float:
        return rng.random() * 10 ** rng.uniform(-2, 2)

    for index in range(300):
        track = rng.choice(sorted(clock))
        stall = amount()
        start = clock[track] + stall
        clock[track] = end = start + amount()
        category = rng.choice(("execute", "sync_wait"))
        tracer.span(
            track,
            f"op {index}",
            category,
            start,
            end,
            stalls=(("sync_wait", stall),),
        )
    return tracer


def test_the_fold_order_shows_in_the_low_bits():
    """The seeded runs above add mostly whole numbers, which any order
    sums alike; here the order is visible, so the pin has teeth."""
    tracer = float_heavy_trace()
    busy, stall, categories, makespan = record_order_fold(tracer.spans)
    assert tracer.busy_totals() == busy
    assert tracer.stall_totals() == stall
    assert tracer.category_totals() == categories
    assert tracer.makespan == makespan
    # A backward walk, or each category summed straight off the spans,
    # lands on different bits.
    assert record_order_fold(tracer.spans[::-1])[:2] != (busy, stall)
    direct: dict[str, float] = {}
    for span in tracer.spans:
        direct[span.category] = direct.get(span.category, 0.0) + (
            span.end - span.start
        )
        for category, amount in span.stalls:
            direct[category] = direct.get(category, 0.0) + amount
    assert direct != categories
