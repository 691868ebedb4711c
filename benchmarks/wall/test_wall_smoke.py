"""Tier-1 wiring check of the wall-clock benchmark at ``--smoke`` sizes.

Runs the real command (fresh child interpreters, plain and span-traced),
so a rename under ``src/repro`` that breaks a wrapper in ``spans.py`` or a
``stats`` field ``measure.py`` reads fails here, not in the next perf PR.
Timings at these sizes mean nothing and are not asserted.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import measure  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402

END_TO_END = (
    "ops_per_s_norm",
    "ops_per_s",
    "setup_s",
    "setup_raw_s",
    "peak_rss_mb",
    "virtual_speedup",
    "msgs_per_op",
    "recovery_vt",
    "failed_op_share",
)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("wall") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(out.read_text()), done.stdout


def test_smoke_covers_every_workload_and_metric(smoke):
    report, printed = smoke
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(report["workloads"]) == list(scenarios.SCENARIOS)
    assert [w["name"] for w in spec["workloads"]] == list(scenarios.SCENARIOS)
    for name, result in report["workloads"].items():
        assert set(result["end_to_end"]) == set(END_TO_END), name
        assert result["end_to_end"]["failed_op_share"] == 0, name
        assert result["failed"] == 0 and result["attempted"] > 0, name
        for row in spec["per_layer"]:
            assert row["name"] in result["per_layer"], (name, row["name"])
    for metric in END_TO_END:
        assert metric in printed
    assert report["workloads"]["owner_wide"]["end_to_end"]["msgs_per_op"] == 0
    faulted = report["workloads"]["cluster_faults"]["per_layer"]
    assert faulted["faults.rejoins"] == 4
    assert faulted["faults.revocations"] > 0
    assert faulted["faults.ops_replayed"] > 0


def test_fault_guard_fires_when_no_node_crashes():
    scenario = scenarios.SCENARIOS["cluster_faults"]
    ops = scenario.ops // scenarios.SMOKE_DIVISOR
    with run.Oracles(ops, run.SMOKE_REF_SECONDS) as oracles:
        job = oracles.job(scenario, 7)
        job["faults"] = dict(job["faults"], crashes=[])
        with pytest.raises(
            run.BenchError,
            match=f"exited {measure.EXIT_INVALID}: .*did not bite",
        ):
            run.run_child(job)
