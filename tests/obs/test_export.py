"""Chrome trace-event export: schema, track mapping, round-trip."""

from __future__ import annotations

import json

import pytest
from test_identity import CONFIGS, make_items

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import (
    TraceExportError,
    TraceRecorder,
    chrome_trace,
    critical_path_report,
    trace_from_chrome,
    utilization_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import SCALE
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import APPROVAL_HEAVY_MIX, TokenWorkloadGenerator

IDS = [label for label, _, _ in CONFIGS]


def traced_engine_run():
    tracer = TraceRecorder()
    token = ERC20TokenType(48, total_supply=4800)
    items = TokenWorkloadGenerator(
        48, seed=5, mix=APPROVAL_HEAVY_MIX
    ).generate(192)
    PipelinedExecutor(
        token, EngineConfig(num_lanes=4, seed=5), tracer=tracer
    ).run_workload(items)
    return tracer


class TestChromeTrace:
    def test_real_run_passes_the_validator(self):
        document = chrome_trace(traced_engine_run())
        validate_chrome_trace(document)  # raises on any violation
        assert document["otherData"]["virtual_time_scale"] == SCALE
        assert document["otherData"]["makespan"] > 0

    def test_every_track_is_named_and_addressed(self):
        tracer = traced_engine_run()
        document = chrome_trace(tracer)
        named = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert named == set(tracer.tracks())

    def test_dotted_tracks_share_a_process(self):
        tracer = TraceRecorder()
        tracer.span("node1.lane0", "op 1", "execute", 0.0, 1.0)
        tracer.span("node1.lane1", "op 2", "execute", 0.0, 1.0)
        tracer.span("node2.lane0", "op 3", "execute", 0.0, 1.0)
        tracer.span("router", "dispatch", "dispatch_stall", 0.0, 0.0)
        events = chrome_trace(tracer)["traceEvents"]
        pid_of = {
            event["args"]["name"]: event["pid"]
            for event in events
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert pid_of["node1.lane0"] == pid_of["node1.lane1"]
        assert pid_of["node1.lane0"] != pid_of["node2.lane0"]
        assert pid_of["router"] not in (
            pid_of["node1.lane0"], pid_of["node2.lane0"]
        )

    def test_stalls_tile_backward_from_the_span(self):
        tracer = TraceRecorder()
        tracer.span(
            "lane0",
            "op 1",
            "execute",
            10.0,
            12.0,
            stalls=(("sync_wait", 3.0), ("frontier_stall", 2.0)),
        )
        events = chrome_trace(tracer)["traceEvents"]
        waits = [e for e in events if e["name"].startswith("wait:")]
        spans = [e for e in events if e["name"] == "op 1"]
        assert [w["name"] for w in waits] == [
            "wait:frontier_stall", "wait:sync_wait"
        ]
        # The wait boxes tile [start - total_stall, start) in order.
        assert waits[0]["ts"] == pytest.approx(5.0 * SCALE)
        assert waits[0]["dur"] == pytest.approx(2.0 * SCALE)
        assert waits[1]["ts"] == pytest.approx(7.0 * SCALE)
        assert waits[1]["dur"] == pytest.approx(3.0 * SCALE)
        assert spans[0]["ts"] == pytest.approx(10.0 * SCALE)

    def test_instants_become_i_events(self):
        tracer = TraceRecorder()
        tracer.span("engine", "round 0", "execute", 0.0, 1.0)
        tracer.instant("engine", "round 0 classified", 0.5, {"windows": 1})
        events = chrome_trace(tracer)["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert len(instants) == 1
        assert instants[0]["ts"] == pytest.approx(0.5 * SCALE)
        assert instants[0]["args"] == {"windows": 1}


class TestWriteRoundTrip:
    def test_written_file_reloads_and_validates(self, tmp_path):
        tracer = traced_engine_run()
        path = tmp_path / "trace.json"
        document = write_chrome_trace(tracer, path)
        reloaded = json.loads(path.read_text())
        assert reloaded == document
        validate_chrome_trace(reloaded)
        attribution = reloaded["otherData"]["attribution"]
        assert attribution["makespan"] == pytest.approx(tracer.makespan)
        assert sum(attribution["totals"].values()) == pytest.approx(
            attribution["makespan"]
        )


def record(build, mix):
    tracer = TraceRecorder()
    build(tracer).run_workload(make_items(mix))
    return tracer


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_other_data_is_the_recorders_own_totals(label, mix, build):
    """One schema: the export's totals and both reports are the
    recorder's own, bit for bit, and ``otherData`` carries nothing about
    how the spans were kept."""
    tracer = record(build, mix)
    other = chrome_trace(tracer)["otherData"]
    assert set(other) == {
        "virtual_time_scale",
        "makespan",
        "category_totals",
        "op_stages",
        "attribution",
        "utilization",
    }
    assert other["makespan"] == tracer.makespan
    assert other["category_totals"] == tracer.category_totals()
    assert list(other["category_totals"]) == list(tracer.category_totals())
    assert other["op_stages"] == tracer.stage_totals()
    assert other["attribution"] == critical_path_report(tracer).as_dict()
    assert other["utilization"] == utilization_report(tracer).as_dict()


@pytest.mark.parametrize("label,mix,build", CONFIGS, ids=IDS)
def test_trace_from_chrome_rebuilds_every_span(label, mix, build):
    """The reader the differ and the gate use: every span and instant
    comes back in order with its track, category, stalls, chain flag
    and args; times pass through the display scale, so the derived
    totals match to float precision."""
    tracer = record(build, mix)
    rebuilt = trace_from_chrome(json.loads(json.dumps(chrome_trace(tracer))))
    assert len(rebuilt.spans) == len(tracer.spans)
    for before, after in zip(tracer.spans, rebuilt.spans):
        assert (after.track, after.name, after.category) == (
            before.track, before.name, before.category
        )
        assert after.chain == before.chain
        assert after.stalls == before.stalls
        assert after.args == before.args
        assert after.start == pytest.approx(before.start, rel=1e-12)
        assert after.end == pytest.approx(before.end, rel=1e-12)
    assert [(i.track, i.name) for i in rebuilt.instants] == [
        (i.track, i.name) for i in tracer.instants
    ]
    assert rebuilt.tracks() == tracer.tracks()
    assert rebuilt.makespan == pytest.approx(tracer.makespan, rel=1e-12)
    totals = tracer.category_totals()
    assert list(rebuilt.category_totals()) == list(totals)
    for category, amount in rebuilt.category_totals().items():
        assert amount == pytest.approx(totals[category], rel=1e-9)


class TestValidatorRejects:
    def test_non_object_document(self):
        with pytest.raises(TraceExportError):
            validate_chrome_trace([])

    def test_missing_trace_events(self):
        with pytest.raises(TraceExportError):
            validate_chrome_trace({"otherData": {}})

    def test_unknown_phase(self):
        event = {"ph": "B", "pid": 1, "tid": 1, "name": "x", "ts": 0}
        with pytest.raises(TraceExportError):
            validate_chrome_trace({"traceEvents": [event]})

    def test_missing_required_key_is_named(self):
        event = {"ph": "X", "pid": 1, "tid": 1, "name": "x", "ts": 0}
        with pytest.raises(TraceExportError, match="'dur'"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_negative_duration(self):
        event = {
            "ph": "X",
            "pid": 1,
            "tid": 1,
            "name": "x",
            "ts": 0,
            "dur": -1,
        }
        with pytest.raises(TraceExportError):
            validate_chrome_trace({"traceEvents": [event]})

    def test_bad_instant_scope(self):
        event = {
            "ph": "i",
            "pid": 1,
            "tid": 1,
            "name": "x",
            "ts": 0,
            "s": "z",
        }
        with pytest.raises(TraceExportError):
            validate_chrome_trace({"traceEvents": [event]})
