"""The bench-regression gate, in-process: ``scripts/obs.py gate``
compares two self-describing bench JSONs — headline list, config block
and run profile all come from the files — and never starts a child.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "obs_cli", ROOT / "scripts" / "obs.py"
)
obs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(obs)

PROFILE = {
    "makespan": 10.0,
    "totals": {"execute": 8.0, "sync_wait": 2.0},
    "track_totals": {
        "lane0": {"execute": 8.0},
        "lane1": {"execute": 6.0, "sync_wait": 2.0},
    },
    "stages": {"submit->commit": {"count": 4, "total": 20.0}},
    "spans": 4,
}


def bench_json() -> dict:
    return {
        "engine": {"virtual_time": 100.0, "messages": 40, "dropped": 0},
        "config": {"engine": {"window": 64}, "cluster": {"num_nodes": 4}},
        "headlines": {
            "band": ["engine.virtual_time", "engine.messages"],
            "zero": ["engine.dropped"],
        },
        "profile": copy.deepcopy(PROFILE),
    }


def findings(baseline: dict, run: dict, tolerance: float) -> list[str]:
    return obs.gate(baseline, run, tolerance)[0]


def test_an_identical_run_passes_at_zero_tolerance():
    assert findings(bench_json(), bench_json(), 0.0) == []


def test_band_drift_fails_outside_the_band_only():
    run = bench_json()
    run["engine"]["virtual_time"] = 120.0
    assert findings(bench_json(), run, 0.25) == []
    (failure,) = findings(bench_json(), run, 0.1)
    assert failure.startswith("engine.virtual_time: baseline 100, run 120")


def test_a_zero_metric_has_no_band():
    run = bench_json()
    run["engine"]["dropped"] = 1
    (failure,) = findings(bench_json(), run, 0.9)
    assert failure.startswith("engine.dropped:")
    assert "allowed ±0" in failure


def test_a_nan_headline_fails_instead_of_comparing_false():
    run = bench_json()
    run["engine"]["messages"] = float("nan")
    (failure,) = findings(bench_json(), run, 0.25)
    assert failure.startswith("engine.messages:")


@pytest.mark.parametrize("side", ["baseline", "run"])
def test_a_headline_key_missing_on_either_side_is_named(side):
    baseline, run = bench_json(), bench_json()
    del {"baseline": baseline, "run": run}[side]["engine"]["messages"]
    (failure,) = findings(baseline, run, 0.25)
    assert failure.startswith("engine.messages: missing from the")
    assert ("committed baseline" if side == "baseline" else "run output") in (
        failure
    )


def test_config_drift_is_refused():
    run = bench_json()
    run["config"]["cluster"]["num_nodes"] = 8
    (failure,) = findings(bench_json(), run, 0.25)
    assert failure.startswith("config.cluster.num_nodes: baseline 4, run 8")


def test_headlines_drift_is_refused():
    """Dropping a metric from the bench's list un-gates it: the baseline
    still lists it, so the run is refused until re-baselined."""
    run = bench_json()
    run["headlines"]["band"].remove("engine.messages")
    run["engine"]["messages"] = 4000  # would otherwise slip through
    (failure,) = findings(bench_json(), run, 0.25)
    assert failure.startswith("headlines.band:")


@pytest.mark.parametrize("block", ["config", "headlines"])
def test_a_missing_block_is_refused(block):
    run = bench_json()
    del run[block]
    failures = findings(bench_json(), run, 0.25)
    assert failures[0] == f"{block}: only in the baseline"


@pytest.mark.parametrize(
    "headlines",
    [["engine.messages"], "engine.messages", {"band": "x", "zero": 3}],
)
def test_a_malformed_headlines_block_fails_without_a_traceback(headlines):
    run = bench_json()
    run["headlines"] = headlines
    failures = findings(bench_json(), run, 0.25)
    assert any(f.startswith("headlines") for f in failures)
    assert obs.headline_paths(run) == ([], [])


def test_a_gate_over_no_headline_fails():
    """Both sides agreeing on an empty list is not a pass."""
    baseline, run = bench_json(), bench_json()
    baseline["headlines"] = run["headlines"] = {"band": [], "zero": []}
    (failure,) = findings(baseline, run, 0.25)
    assert failure.startswith("headlines: the run lists no headline metric")


def test_a_missing_profile_is_a_finding():
    run = bench_json()
    del run["profile"]
    (failure,), movers = obs.gate(bench_json(), run, 0.25)
    assert failure.startswith("profile: no trace diff: not a run profile")
    assert movers == []


def write(path: Path, data: dict) -> Path:
    path.write_text(json.dumps(data))
    return path


def test_a_category_moving_past_the_budget_fails_inside_every_band(
    tmp_path, capsys
):
    """3 vt of a 10 vt makespan move from ``execute`` to ``sync_wait``:
    the makespan and every headline hold, but each of the two categories
    moved by more than 20% of the baseline makespan."""
    run = bench_json()
    run["profile"]["totals"] = {"execute": 5.0, "sync_wait": 5.0}
    baseline = write(tmp_path / "baseline.json", bench_json())
    argv = ["gate", "x", "--baseline", str(baseline), "--tolerance", "0"]
    status = obs.main([*argv, "--run", str(write(tmp_path / "r.json", run))])
    out = capsys.readouterr().out
    assert status == 1
    assert [line for line in out.splitlines() if line.startswith("  - ")] == [
        "  - profile.totals.execute: baseline 8.00, run 5.00 vt (-3.00, "
        "over the 2.00 vt budget: 20% of the baseline makespan)",
        "  - profile.totals.sync_wait: baseline 2.00, run 5.00 vt (+3.00, "
        "over the 2.00 vt budget: 20% of the baseline makespan)",
    ]
    assert "trace diff (baseline -> run): makespan 10.00 -> 10.00" in out


@pytest.mark.parametrize("content", ["[1, 2]", "not json", None])
def test_an_unusable_run_file_is_one_finding(tmp_path, capsys, content):
    """A run file that is not a JSON object, not JSON, or absent."""
    run = tmp_path / "run.json"
    if content is not None:
        run.write_text(content)
    baseline = write(tmp_path / "baseline.json", bench_json())
    status = obs.main(
        ["gate", "x", "--run", str(run), "--baseline", str(baseline)]
    )
    out = capsys.readouterr().out
    assert status == 1
    (finding,) = [line for line in out.splitlines() if line.startswith("  - ")]
    assert finding.startswith(f"  - {run}: not ")


def test_a_tampered_baseline_fails_with_a_trace_diff_and_no_child(
    tmp_path, monkeypatch, capsys
):
    """The committed pipeline baseline against a copy whose makespan
    headline doubled and whose profile lost 3 vt of execute time: the
    gate fails, names the headline, and explains from the two embedded
    profiles — without re-running anything."""

    def no_children(*args, **kwargs):
        raise AssertionError("the gate started a child process")

    monkeypatch.setattr(subprocess, "run", no_children)
    monkeypatch.setattr(subprocess, "Popen", no_children)
    committed = ROOT / "benchmarks" / "baselines" / "BENCH_pipeline.json"
    baseline = json.loads(committed.read_text())
    baseline["engine"]["approval_heavy"]["barrier"]["virtual_time"] *= 2
    baseline["profile"]["makespan"] -= 3.0
    baseline["profile"]["totals"]["execute"] -= 3.0
    tampered = tmp_path / "BENCH_pipeline.json"
    tampered.write_text(json.dumps(baseline))
    status = obs.main(
        ["gate", "pipeline", "--run", str(committed)]
        + ["--baseline", str(tampered)]
    )
    out = capsys.readouterr().out
    assert status == 1
    assert "bench-regression gate FAILED for pipeline" in out
    assert "engine.approval_heavy.barrier.virtual_time" in out
    assert "trace diff (baseline -> run)" in out
    assert "execute            +3.00 vt" in out


def test_the_committed_baselines_gate_themselves(capsys):
    for path in sorted((ROOT / "benchmarks" / "baselines").iterdir()):
        bench = path.stem.removeprefix("BENCH_")
        assert obs.main(["gate", bench, "--run", str(path)]) == 0
        assert "no attribution movement" in capsys.readouterr().out
