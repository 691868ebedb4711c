"""Chrome trace-event export: schema, track mapping, round-trip."""

from __future__ import annotations

import json

import pytest

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.obs import (
    TraceExportError,
    TraceRecorder,
    chrome_trace,
    critical_path_report,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.export import SCALE
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import APPROVAL_HEAVY_MIX, TokenWorkloadGenerator


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
        report = critical_path_report(tracer).check()
        path = tmp_path / "trace.json"
        document = write_chrome_trace(
            tracer, path, metadata={"attribution": report.as_dict()}
        )
        reloaded = json.loads(path.read_text())
        assert reloaded == document
        validate_chrome_trace(reloaded)
        attribution = reloaded["otherData"]["attribution"]
        assert attribution["makespan"] == pytest.approx(tracer.makespan)
        assert sum(attribution["totals"].values()) == pytest.approx(
            attribution["makespan"]
        )


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
