"""The standalone bench contract (``benchmarks/common.py::bench_main``)
on every gated bench: the representative traced configuration runs
exactly once per invocation, its recorder feeds the JSON *and* the
``--trace`` export, and the JSON is the same bytes with or without
``--trace`` (``--trace-sample`` alone pays for a second, sampled run).
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from repro.obs import RunProfile, profile_document

BENCHMARKS = Path(__file__).resolve().parent.parent.parent / "benchmarks"

#: Bench -> the smallest size at which its in-bench claims hold (the
#: engine bench validates every pair against the oracle: keep it tiny).
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


@pytest.mark.parametrize("bench", ["pipeline"], indirect=True)
def test_trace_sample_pays_for_its_own_run(bench, tmp_path, capsys):
    module, calls, size = bench
    plain, sampled = tmp_path / "plain.json", tmp_path / "sampled.json"
    trace = tmp_path / "trace.json"
    assert module.main([*size, "--out", str(plain)]) == 0
    del calls[:]
    argv = [*size, "--out", str(sampled), "--trace", str(trace)]
    assert module.main([*argv, "--trace-sample", "100"]) == 0
    assert [tracer.max_spans for tracer in calls] == [None, 100]
    assert plain.read_bytes() == sampled.read_bytes()
    assert json.loads(trace.read_text())["otherData"]["sampled"] is True


@pytest.mark.parametrize("bench", ["pipeline"], indirect=True)
def test_bad_arguments_are_rejected_before_anything_runs(
    bench, tmp_path, capsys
):
    """``--trace-sample`` without ``--trace`` used to be rejected only
    after measuring, checking claims and writing the JSON."""
    module, calls, size = bench
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_info:
        module.main([*size, "--out", str(out), "--trace-sample", "100"])
    assert exit_info.value.code == 2
    assert "--trace-sample requires --trace" in capsys.readouterr().err
    assert calls == [] and not out.exists()
