"""Makespan attribution: exact-sum invariant across every layer."""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import (
    AttributionReport,
    CATEGORIES,
    TraceError,
    TraceRecorder,
    critical_path_report,
)
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import APPROVAL_HEAVY_MIX, TokenWorkloadGenerator

ACCOUNTS = 48
OPS = 192


def make_items(seed=5):
    return TokenWorkloadGenerator(
        ACCOUNTS, seed=seed, mix=APPROVAL_HEAVY_MIX
    ).generate(OPS)


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


class TestHandBuilt:
    def test_empty_tracer_reports_zero(self):
        report = critical_path_report(TraceRecorder())
        assert report.makespan == 0.0
        assert report.attributed == 0.0
        report.check()

    def test_single_span_is_all_execute(self):
        tracer = TraceRecorder()
        tracer.span("lane0", "op 1", "execute", 0.0, 5.0)
        report = critical_path_report(tracer).check()
        assert report.makespan == 5.0
        assert report.totals == {"execute": 5.0}

    def test_stalls_and_gaps_are_charged(self):
        tracer = TraceRecorder()
        # [0, 2) execute, [2, 3) unexplained, [3, 5) sync wait
        # (recorded as the second span's stall), [5, 9) execute.
        tracer.span("lane0", "op 1", "execute", 0.0, 2.0)
        tracer.span(
            "lane0", "op 2", "execute", 5.0, 9.0, stalls=(("sync_wait", 2.0),)
        )
        report = critical_path_report(tracer).check()
        assert report.makespan == 9.0
        assert report.totals["execute"] == pytest.approx(6.0)
        assert report.totals["sync_wait"] == pytest.approx(2.0)
        assert report.totals["network"] == pytest.approx(1.0)

    def test_informational_spans_are_excluded(self):
        tracer = TraceRecorder()
        tracer.span("lane0", "op 1", "execute", 0.0, 4.0)
        tracer.span(
            "sync.global", "order", "sync_wait", 0.0, 40.0, chain=False
        )
        report = critical_path_report(tracer).check()
        assert report.makespan == 4.0
        assert report.totals == {"execute": 4.0}

    def test_share_and_as_dict(self):
        tracer = TraceRecorder()
        tracer.span("lane0", "op 1", "execute", 1.0, 5.0)
        report = critical_path_report(tracer).check()
        assert report.share("execute") == pytest.approx(0.8)
        assert report.share("lease_wait") == 0.0
        as_dict = report.as_dict()
        assert as_dict["makespan"] == 5.0
        assert set(as_dict["totals"]) == set(CATEGORIES)

    def test_check_raises_on_tampered_totals(self):
        report = AttributionReport(makespan=10.0, totals={"execute": 7.0})
        with pytest.raises(TraceError):
            report.check()

    def test_render_mentions_every_nonzero_category(self):
        tracer = TraceRecorder()
        tracer.span(
            "lane0",
            "op 1",
            "execute",
            3.0,
            5.0,
            stalls=(("frontier_stall", 3.0),),
        )
        text = "\n".join(critical_path_report(tracer).check().render())
        assert "execute" in text
        assert "frontier_stall" in text
        assert "lease_wait" not in text


def traced_runs():
    def engine(tracer):
        PipelinedExecutor(
            make_token(), EngineConfig(num_lanes=4, seed=5), tracer=tracer
        ).run_workload(make_items())

    def pipelined(tracer):
        PipelinedExecutor(
            make_token(),
            EngineConfig(num_lanes=4, pipeline_depth=3, seed=5),
            tracer=tracer,
        ).run_workload(make_items())

    def cluster(tracer):
        TokenCluster(
            make_token(),
            ClusterConfig(
                num_nodes=3, lanes_per_node=4, seed=5, pipeline_depth=3
            ),
            tracer=tracer,
        ).run_workload(make_items())

    return [
        ("engine", engine),
        ("pipelined", pipelined),
        ("cluster", cluster),
    ]


@pytest.mark.parametrize(
    "label,run", traced_runs(), ids=[label for label, _ in traced_runs()]
)
class TestExactSum:
    def test_totals_partition_the_makespan(self, label, run):
        tracer = TraceRecorder()
        run(tracer)
        report = critical_path_report(tracer)
        report.check()  # raises unless the sum is exact
        assert report.makespan > 0
        assert report.totals.get("execute", 0.0) > 0
        assert all(amount >= 0 for amount in report.totals.values())
        assert set(report.totals) <= set(CATEGORIES)

    def test_segments_tile_the_timeline(self, label, run):
        tracer = TraceRecorder()
        run(tracer)
        report = critical_path_report(tracer)
        # Segments are appended walking backward: latest first,
        # contiguous, covering [0, makespan].
        assert report.segments[0].end == pytest.approx(report.makespan)
        assert report.segments[-1].start == pytest.approx(0.0)
        for later, earlier in zip(report.segments, report.segments[1:]):
            assert later.start == pytest.approx(earlier.end)
