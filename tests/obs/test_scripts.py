"""CLI-level coverage for ``scripts/obs.py``: ``diff`` (explain two
traced runs — exported traces or bench JSONs), ``validate`` (a trace is
the export of the spans it rebuilds into; the ``faults`` track schema)
and ``gate`` (a failure prints the trace diff), all driven exactly the
way CI drives them — as subprocesses, without ``PYTHONPATH``.  The
gate's rules are covered in-process by ``test_gate.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import (
    TraceRecorder,
    explain_regression,
    profile_document,
    write_chrome_trace,
)

ROOT = Path(__file__).resolve().parent.parent.parent


def run_script(*args: str):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "obs.py"), *map(str, args)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
    )


def make_trace(path: Path, slow: float = 0.0) -> None:
    """A tiny two-lane run; ``slow`` stretches lane 1's execute time."""
    tracer = TraceRecorder()
    tracer.op_submit(1, 0.0)
    tracer.span("lane.0", "op 1", "execute", 0.0, 4.0)
    tracer.op_commit(1, 4.0)
    tracer.op_submit(2, 0.0)
    tracer.span(
        "lane.1",
        "op 2",
        "execute",
        2.0,
        6.0 + slow,
        stalls=(("sync_wait", 2.0),),
    )
    tracer.op_commit(2, 6.0 + slow)
    write_chrome_trace(tracer, path)


def test_diff_trace_self_diff_reports_no_movement(tmp_path):
    trace = tmp_path / "a.json"
    make_trace(trace)
    result = run_script("diff", trace, trace)
    assert result.returncode == 0, result.stderr
    assert "no attribution movement" in result.stdout


def test_diff_trace_ranked_explanation_repartitions_the_delta(tmp_path):
    base, run = tmp_path / "base.json", tmp_path / "run.json"
    make_trace(base)
    make_trace(run, slow=3.0)
    result = run_script("diff", base, run)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0].startswith("trace diff (base.json -> run.json)")
    # Ranked: the stretched execute time is the top mover.
    assert lines[1].startswith("  1. execute            +3.00 vt")
    explanation = explain_regression(
        json.loads(base.read_text()), json.loads(run.read_text())
    )
    assert sum(
        delta.delta for delta in explanation.categories
    ) == pytest.approx(explanation.makespan_delta, abs=1e-9)
    assert explanation.categories[0].category == "execute"
    assert explanation.categories[0].delta == pytest.approx(3.0)


def test_diff_trace_takes_a_bench_json_on_either_side(tmp_path):
    """A bench JSON stands in for the trace it profiled: the diff reads
    its ``profile`` block and finds the same 3 vt."""
    base, run = tmp_path / "base.json", tmp_path / "run.json"
    make_trace(base)
    make_trace(run, slow=3.0)
    bench = tmp_path / "BENCH_x.json"
    profile = profile_document(json.loads(base.read_text()))
    bench.write_text(json.dumps({"profile": profile.as_dict()}))
    result = run_script("diff", bench, run, "--top", "1")
    assert result.returncode == 0, result.stdout
    assert "trace diff (BENCH_x.json -> run.json)" in result.stdout
    assert "execute            +3.00 vt" in result.stdout
    result = run_script("diff", base, bench)
    assert result.returncode == 0, result.stdout
    assert "no attribution movement" in result.stdout


@pytest.mark.parametrize("garbage", ["not json", "[1, 2]", '{"a": 1}'])
def test_diff_trace_fails_cleanly_on_garbage(tmp_path, garbage):
    bad = tmp_path / "bad.json"
    bad.write_text(garbage)
    good = tmp_path / "good.json"
    make_trace(good)
    result = run_script("diff", good, bad)
    assert result.returncode == 1
    assert "trace diff FAILED" in result.stdout


def test_validate_trace_accepts_an_exported_trace(tmp_path):
    trace = tmp_path / "trace.json"
    make_trace(trace)
    result = run_script("validate", trace)
    assert result.returncode == 0, result.stdout
    assert f"trace OK: {trace}" in result.stdout
    assert "attribution sums to makespan" in result.stdout


def _inflate_category_total(document):
    document["otherData"]["category_totals"]["execute"] += 1.0


def _inflate_attribution(document):
    document["otherData"]["attribution"]["totals"]["execute"] += 1.0


def _shift_attribution(document):
    """Still a partition of the makespan, but not the one of the spans."""
    totals = document["otherData"]["attribution"]["totals"]
    totals["execute"] -= 1.0
    totals["network"] += 1.0


def _raise_idle(document):
    document["otherData"]["utilization"]["tracks"]["lane.0"]["idle"] += 1.0


def _drop_wait_boxes(document):
    document["traceEvents"] = [
        event
        for event in document["traceEvents"]
        if not event["name"].startswith("wait:")
    ]


def _raise_makespan(document):
    document["otherData"]["makespan"] += 1.0


def _drop_utilization(document):
    del document["otherData"]["utilization"]


@pytest.mark.parametrize(
    "tamper,message",
    [
        (
            _inflate_category_total,
            "otherData.category_totals.execute: document 9.0, rebuild 8.0",
        ),
        (
            _inflate_attribution,
            "otherData.attribution.totals.execute: document 5.0, rebuild 4.0",
        ),
        (
            _shift_attribution,
            "otherData.attribution.totals.execute: document 3.0, rebuild 4.0",
        ),
        (
            _raise_idle,
            "otherData.utilization.tracks.lane.0.idle: document 3.0, "
            "rebuild 2.0",
        ),
        (
            _drop_wait_boxes,
            "traceEvents[4].args.stalls: only in the document",
        ),
        (_raise_makespan, "otherData.makespan: document 7.0, rebuild 6.0"),
        (_drop_utilization, "otherData.utilization: only in the rebuild"),
    ],
    ids=[
        "category_totals",
        "attribution",
        "shifted_attribution",
        "utilization",
        "wait_tiling",
        "makespan",
        "dropped_utilization",
    ],
)
def test_validate_trace_rejects_a_tampered_trace(tmp_path, tamper, message):
    """The one comparison with the export of the rebuilt spans: one edit
    to an otherwise valid export — an event, a total or a report, its
    value or its presence — is exactly one finding, naming that place."""
    trace = tmp_path / "trace.json"
    make_trace(trace)
    document = json.loads(trace.read_text())
    tamper(document)
    trace.write_text(json.dumps(document))
    assert_one_finding(trace, message)


def assert_one_finding(trace: Path, message: str) -> None:
    result = run_script("validate", trace)
    assert result.returncode == 1
    assert f"trace validation FAILED for {trace}" in result.stdout
    failures = [
        line for line in result.stdout.splitlines() if line.startswith("  - ")
    ]
    assert len(failures) == 1 and message in failures[0], result.stdout


def make_faults_trace(
    path: Path,
    crash: bool = True,
    extra: tuple[str, dict] | None = None,
    recovery_at: float = 3.0,
    chain: bool = False,
) -> None:
    """One lane op beside a ``faults`` track that records node 1
    crashing at 2, declared dead at 3, recovering off the chain from
    ``recovery_at`` to 5 and rejoining at 6; ``extra`` adds one more
    instant ``(name, args)`` at 4."""
    tracer = TraceRecorder()
    tracer.span("lane.0", "op 1", "execute", 0.0, 8.0)
    if crash:
        tracer.instant("faults", "node 1 crashed", 2.0, {"node": 1})
    tracer.instant("faults", "node 1 declared dead", 3.0, {"node": 1})
    tracer.span(
        "faults",
        "recovery node 1",
        "recovery",
        recovery_at,
        5.0,
        args={"node": 1},
        chain=chain,
    )
    if extra is not None:
        tracer.instant("faults", extra[0], 4.0, extra[1])
    tracer.instant("faults", "node 1 rejoined", 6.0, {"node": 1})
    write_chrome_trace(tracer, path)


def test_validate_trace_accepts_a_well_formed_faults_track(tmp_path):
    trace = tmp_path / "faults.json"
    make_faults_trace(trace)
    document = json.loads(trace.read_text())
    assert any(
        event["ph"] == "M" and event["args"]["name"] == "faults"
        for event in document["traceEvents"]
    )
    result = run_script("validate", trace)
    assert result.returncode == 0, result.stdout
    assert f"trace OK: {trace}" in result.stdout


@pytest.mark.parametrize(
    "defect,message",
    [
        (
            {"extra": ("node 1 exploded", {"node": 1})},
            "unknown instant on the faults track: 'node 1 exploded'",
        ),
        (
            {"extra": ("revoke shard 3 -> node 2", {})},
            "faults instant 'revoke shard 3 -> node 2' lacks an args.node",
        ),
        (
            {"crash": False},
            "node 1 rejoined at 6000 without a prior crash instant",
        ),
        (
            {"chain": True},
            "recovery span 'recovery node 1' must be off-chain",
        ),
        (
            {"recovery_at": 2.5},
            "recovery span for node 1 starts at 2500 but no "
            "declared-dead/rejoin instant anchors it",
        ),
    ],
    ids=[
        "unknown_instant",
        "instant_without_node",
        "rejoin_without_crash",
        "recovery_on_chain",
        "unanchored_recovery",
    ],
)
def test_validate_trace_rejects_a_malformed_faults_track(
    tmp_path, defect, message
):
    """Each rule of the ``faults`` track schema, broken once."""
    trace = tmp_path / "faults.json"
    make_faults_trace(trace, **defect)
    assert_one_finding(trace, message)


def test_validate_trace_rejects_a_sampled_document(tmp_path):
    """Only full traces are produced; a document that says it is
    sampled came from elsewhere and is refused, not half-checked."""
    trace = tmp_path / "sampled.json"
    make_trace(trace)
    document = json.loads(trace.read_text())
    document["otherData"]["sampled"] = True
    trace.write_text(json.dumps(document))
    assert_one_finding(trace, "otherData.sampled: only in the document")


def test_gate_failure_prints_a_trace_diff():
    """The committed pipeline baseline gated against the dag one (both
    two are real bench JSONs with equal ``config`` and unequal
    ``headlines``): the gate must fail and explain from the two embedded
    profiles — the script needs no PYTHONPATH and no flag to do so."""
    baselines = ROOT / "benchmarks" / "baselines"
    result = run_script(
        "gate",
        "pipeline",
        "--run",
        baselines / "BENCH_pipeline.json",
        "--baseline",
        baselines / "BENCH_dag.json",
    )
    assert result.returncode == 1, result.stderr
    assert "bench-regression gate FAILED for pipeline" in result.stdout
    assert "headlines.band:" in result.stdout
    assert "trace diff (baseline -> run): makespan " in result.stdout
    assert "no attribution movement" not in result.stdout
