"""The standalone bench contract (``benchmarks/common.py::bench_main``)
on every gated bench: the representative traced configuration runs
exactly once per invocation, its recorder feeds the JSON *and* the
``--trace`` export, and the JSON is the same bytes with or without
``--trace``, and the export embeds the attribution and utilization
reports of that one recorder.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from repro.obs import (
    RunProfile,
    critical_path_report,
    profile_document,
    utilization_report,
)

BENCHMARKS = Path(__file__).resolve().parent.parent.parent / "benchmarks"

#: Bench -> the smallest size at which its in-bench claims hold (the
#: engine bench audits every window pair against the oracle: keep it tiny).
SIZES = {
    "engine": ["--ops", "64"],
    "cluster": ["--ops", "96"],
    "sync": ["--ops", "96"],
    "dag": ["--ops", "96"],
    "pipeline": ["--smoke"],
    "stream": ["--smoke"],
    "faults": ["--smoke"],
}


@pytest.fixture
def bench(request, monkeypatch):
    """The bench module with its ``traced_run`` counted."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    module = importlib.import_module(f"bench_{request.param}")
    calls = []
    traced_run = module.traced_run

    def counted(ops, tracer):
        calls.append(tracer)
        return traced_run(ops, tracer)

    monkeypatch.setattr(module, "traced_run", counted)
    return module, calls, SIZES[request.param]


@pytest.mark.parametrize("bench", sorted(SIZES), indirect=True)
def test_the_traced_run_happens_once_and_the_json_ignores_trace(
    bench, tmp_path, capsys
):
    module, calls, size = bench
    plain, traced = tmp_path / "plain.json", tmp_path / "traced.json"
    trace = tmp_path / "trace.json"
    assert module.main([*size, "--out", str(plain)]) == 0
    assert len(calls) == 1
    argv = [*size, "--out", str(traced), "--trace", str(trace)]
    assert module.main(argv) == 0
    assert len(calls) == 2
    assert plain.read_bytes() == traced.read_bytes()
    # The JSON describes itself, and its profile is the export's.
    results = json.loads(plain.read_text())
    assert results["headlines"] == module.HEADLINES
    assert RunProfile.from_dict(results["profile"]) == profile_document(
        json.loads(trace.read_text())
    )


@pytest.mark.parametrize("bench", sorted(SIZES), indirect=True)
def test_the_trace_export_embeds_both_checked_reports(
    bench, tmp_path, capsys
):
    """``--trace`` carries the attribution and the per-track utilization
    of the very recorder the bench traced, through JSON and back, and
    ``otherData`` holds nothing else beyond the export's own totals."""
    module, calls, size = bench
    trace = tmp_path / "trace.json"
    argv = [*size, "--out", str(tmp_path / "out.json")]
    assert module.main([*argv, "--trace", str(trace)]) == 0
    (tracer,) = calls
    other = json.loads(trace.read_text())["otherData"]
    assert set(other) == {
        "virtual_time_scale",
        "makespan",
        "category_totals",
        "op_stages",
        "attribution",
        "utilization",
    }
    wire = json.loads(
        json.dumps(utilization_report(tracer).check().as_dict())
    )
    assert other["utilization"] == wire
    assert other["utilization"]["makespan"] == tracer.makespan
    wire = json.loads(
        json.dumps(critical_path_report(tracer).check().as_dict())
    )
    assert other["attribution"] == wire
    # Both tables reach the console next to the "wrote" line.
    out = capsys.readouterr().out
    assert "utilization (virtual time" in out
    assert f"wrote {trace}" in out


@pytest.mark.parametrize("bench", ["pipeline"], indirect=True)
def test_bad_arguments_are_rejected_before_anything_runs(
    bench, tmp_path, capsys
):
    module, calls, size = bench
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        module.main([*size, "--out", str(out), "--ops", "0"])
    assert exit_info.value.code == 2
    assert "--ops must be >= 1" in capsys.readouterr().err
    assert calls == [] and not out.exists()
