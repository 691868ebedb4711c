"""Startup loads only what runs: building an ERC20 engine or cluster
imports none of the analysis, exploration, other-token, trace-tooling or
stream code, and running the workload afterwards imports nothing at all
(a lazy import there would move set-up cost into the timed run)."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.integration

#: Modules no ERC20 execution path may load.  ``repro.obs.trace`` is
#: there too: a run without a tracer needs its type for checkers only.
OFF_PATH = [
    f"repro.{package}.{name}"
    for package, names in {
        "obs": "trace diff export report series utilization",
        "analysis": "commutativity hierarchy partition reachability spenders valency",
        "runtime": "executor explorer process scheduler",
        "objects": "erc721 erc777 erc1155 asset_transfer",
        "workloads": "arrivals churn",
    }.items()
    for name in names.split()
] + ["repro.protocols", "repro.faults"]

PROBE = """\
import json, sys
from repro.config import {config}
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import SPENDER_HEAVY_MIX, TokenWorkloadGenerator
from {package} import {system}

token = ERC20TokenType(16, total_supply=1600)
items = TokenWorkloadGenerator(
    16, seed=7, mix=SPENDER_HEAVY_MIX, spender_pool=4
).generate(256)
system = {system}(token, {config}(window=32))
built = set(sys.modules)
_, _, stats = system.run_workload(items)
assert stats.escalated_ops > 0  # the sync lanes ran too
print(json.dumps({{
    "built": sorted(built),
    "added_by_run": sorted(set(sys.modules) - built),
}}))
"""


def probe(package: str, system: str, config: str) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            PROBE.format(package=package, system=system, config=config),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "package, system, config, allowed",
    [
        ("repro.engine", "PipelinedExecutor", "EngineConfig", ()),
        ("repro.cluster", "TokenCluster", "ClusterConfig", ("repro.faults",)),
    ],
)
def test_a_run_loads_only_its_path(package, system, config, allowed):
    loaded = probe(package, system, config)
    assert set(OFF_PATH).intersection(loaded["built"]) <= set(allowed)
    assert loaded["added_by_run"] == []
