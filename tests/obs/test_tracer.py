"""Tracer unit tests plus span well-formedness over real traced runs."""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import LIFECYCLE_STAGES, TraceError, TraceRecorder
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    CHAIN_HEAVY_MIX,
    TokenWorkloadGenerator,
)

ACCOUNTS = 48
OPS = 192


def make_items(mix=APPROVAL_HEAVY_MIX, seed=5):
    return TokenWorkloadGenerator(ACCOUNTS, seed=seed, mix=mix).generate(OPS)


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


class TestRecorderValidation:
    def test_span_rejects_unknown_category(self):
        with pytest.raises(TraceError):
            TraceRecorder().span("lane0", "op 1", "naptime", 0.0, 1.0)

    def test_span_rejects_negative_duration(self):
        with pytest.raises(TraceError):
            TraceRecorder().span("lane0", "op 1", "execute", 2.0, 1.0)

    def test_span_rejects_bad_stalls(self):
        tracer = TraceRecorder()
        with pytest.raises(TraceError):
            tracer.span(
                "lane0",
                "op 1",
                "execute",
                0.0,
                1.0,
                stalls=(("napping", 1.0),),
            )
        with pytest.raises(TraceError):
            tracer.span(
                "lane0",
                "op 1",
                "execute",
                0.0,
                1.0,
                stalls=(("sync_wait", -0.5),),
            )

    def test_lifecycle_rejects_time_travel(self):
        tracer = TraceRecorder()
        tracer.op_stage(1, "classify", 5.0)
        with pytest.raises(TraceError):
            tracer.op_stage(1, "execute", 4.0)

    def test_lifecycle_first_timestamp_wins(self):
        tracer = TraceRecorder()
        tracer.op_stage(1, "schedule", 3.0)
        tracer.op_stage(1, "schedule", 9.0)
        assert tracer.lifecycle(1) == {"schedule": 3.0}

    def test_unterminated_lists_uncommitted_ops(self):
        tracer = TraceRecorder()
        tracer.op_submit(1, 0.0)
        tracer.op_submit(2, 0.0)
        tracer.op_commit(2, 4.0)
        assert tracer.unterminated() == [1]

    def test_commit_feeds_latency_histogram(self):
        tracer = TraceRecorder()
        tracer.op_submit(7, 1.0)
        tracer.op_commit(7, 4.0)
        histogram = tracer.metrics.histogram("op_latency")
        assert histogram.count == 1
        assert histogram.total == pytest.approx(3.0)

    def test_makespan_ignores_informational_spans(self):
        tracer = TraceRecorder()
        tracer.span("lane0", "op 1", "execute", 0.0, 2.0)
        tracer.span("sync.global", "order", "sync_wait", 0.0, 9.0, chain=False)
        assert tracer.makespan == 2.0

    def test_an_empty_recorder_derives_empty_totals(self):
        tracer = TraceRecorder()
        assert tracer.makespan == 0.0
        assert tracer.busy_totals() == {}
        assert tracer.stall_totals() == {}
        assert tracer.category_totals() == {}

    def test_totals_follow_the_span_list(self):
        """Nothing is cached beside the spans: a span recorded after a
        query shows up in the next one, and an informational span never
        does."""
        tracer = TraceRecorder()
        tracer.span("lane0", "op 1", "execute", 0.0, 2.0)
        assert tracer.category_totals() == {"execute": 2.0}
        tracer.span(
            "lane1", "op 2", "execute", 3.0, 4.0, stalls=(("sync_wait", 3.0),)
        )
        assert tracer.busy_totals() == {
            "lane0": {"execute": 2.0},
            "lane1": {"execute": 1.0},
        }
        assert tracer.stall_totals() == {"lane1": {"sync_wait": 3.0}}
        assert tracer.category_totals() == {"execute": 3.0, "sync_wait": 3.0}
        assert tracer.makespan == 4.0
        tracer.span("sync.global", "order", "sync_wait", 0.0, 9.0, chain=False)
        assert tracer.category_totals() == {"execute": 3.0, "sync_wait": 3.0}
        assert tracer.makespan == 4.0
        del tracer.spans[1:]
        assert tracer.category_totals() == {"execute": 2.0}
        assert tracer.makespan == 2.0


def traced_runs():
    """(label, run) pairs covering every instrumented execution layer."""
    def engine(tracer):
        PipelinedExecutor(
            make_token(), EngineConfig(num_lanes=4, seed=5), tracer=tracer
        ).run_workload(make_items())

    def engine_chain(tracer):
        PipelinedExecutor(
            make_token(), EngineConfig(num_lanes=4, seed=5), tracer=tracer
        ).run_workload(make_items(CHAIN_HEAVY_MIX))

    def engine_global(tracer):
        PipelinedExecutor(
            make_token(),
            EngineConfig(num_lanes=4, seed=5, team_threshold=0),
            tracer=tracer,
        ).run_workload(make_items())

    def pipelined(depth, mix):
        return lambda tracer: PipelinedExecutor(
            make_token(),
            EngineConfig(num_lanes=4, pipeline_depth=depth, seed=5),
            tracer=tracer,
        ).run_workload(make_items(mix))

    def cluster(depth, mix):
        return lambda tracer: TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=3, lanes_per_node=4, seed=5, pipeline_depth=depth
            ),
            tracer=tracer,
        ).run_workload(make_items(mix))

    return [
        ("engine", engine),
        ("engine_chain", engine_chain),
        ("engine_global", engine_global),
        ("pipelined_d1", pipelined(1, CHAIN_HEAVY_MIX)),
        ("pipelined_d3", pipelined(3, APPROVAL_HEAVY_MIX)),
        ("cluster_d1", cluster(1, APPROVAL_HEAVY_MIX)),
        ("cluster_d3", cluster(3, CHAIN_HEAVY_MIX)),
    ]


@pytest.mark.parametrize(
    "label,run", traced_runs(), ids=[label for label, _ in traced_runs()]
)
class TestWellFormedness:
    def test_every_submitted_op_commits(self, label, run):
        tracer = TraceRecorder()
        run(tracer)
        assert tracer.op_seqs, "the run recorded no op lifecycles"
        assert tracer.unterminated() == []

    def test_lifecycle_stages_are_monotone(self, label, run):
        tracer = TraceRecorder()
        run(tracer)
        order = {stage: i for i, stage in enumerate(LIFECYCLE_STAGES)}
        for seq in tracer.op_seqs:
            life = tracer.lifecycle(seq)
            staged = sorted(life.items(), key=lambda kv: order[kv[0]])
            timestamps = [ts for _, ts in staged]
            assert timestamps == sorted(timestamps), (seq, life)
            assert "submit" in life and "commit" in life, (seq, life)

    def test_chained_spans_never_overlap_within_a_track(self, label, run):
        tracer = TraceRecorder()
        run(tracer)
        by_track: dict[str, list] = {}
        for span in tracer.spans:
            assert span.end >= span.start
            if span.chain and span.duration > 0:
                by_track.setdefault(span.track, []).append(span)
        assert by_track, "the run recorded no chained spans"
        for track, spans in by_track.items():
            spans.sort(key=lambda s: (s.start, s.end))
            for before, after in zip(spans, spans[1:]):
                assert before.end <= after.start + 1e-9, (track, before, after)

    def test_makespan_covers_every_chained_span(self, label, run):
        tracer = TraceRecorder()
        run(tracer)
        makespan = tracer.makespan
        assert makespan > 0
        for span in tracer.spans:
            if span.chain:
                assert span.end <= makespan + 1e-9
