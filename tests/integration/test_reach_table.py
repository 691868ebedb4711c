"""The committed product-reach table (``benchmarks/baselines/REACH.json``)
against ``src/``.

``scripts/reach.py`` measures which functions the product runs (minutes,
under a profile hook); these checks are cheap and read only the table
and the source: every entry names a function that exists, the table
covers every function of the gated layers, and no function there that
the product misses is left without an allow-list reason.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

spec = importlib.util.spec_from_file_location(
    "reach", ROOT / "scripts" / "reach.py"
)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)

TABLE = json.loads(reach.DEFAULT_OUT.read_text())
SOURCE = reach.functions()
NAMES = {
    f"{module}.{qualname}"
    for module, found in SOURCE.items()
    for qualname in found
}
KINDS = ("product", "tests_only", "unreached")


def missed() -> dict[str, str]:
    """``{dotted name: kind}`` of every table entry the product misses."""
    return {
        f"{module}.{qualname}": kind
        for module, entry in TABLE["modules"].items()
        for kind in KINDS[1:]
        for qualname in entry[kind]
    }


def test_every_entry_resolves_to_a_function_in_src():
    for module, entry in TABLE["modules"].items():
        for kind in KINDS:
            for qualname in entry[kind]:
                assert f"{module}.{qualname}" in NAMES, (module, qualname)


def test_every_allow_entry_resolves_and_covers_a_missed_function():
    assert TABLE["allow"] == reach.ALLOW
    covered = missed()
    for entry, reason in TABLE["allow"].items():
        assert any(
            name == entry or name.startswith(entry + ".") for name in NAMES
        ), entry
        assert any(
            name == entry or name.startswith(entry + ".") for name in covered
        ), f"{entry} is allow-listed but the product reaches all of it"
        assert reason.strip() and "\n" not in reason, entry


@pytest.mark.parametrize("prefix", reach.GATED)
def test_the_gated_layers_are_covered_and_triaged(prefix):
    """Every function of ``engine/``, ``cluster/``, ``sync/``, ``obs/``
    and ``config.py`` is in the table, and each one the product misses
    is allow-listed with a reason."""
    listed = {
        f"{module}.{qualname}"
        for module, entry in TABLE["modules"].items()
        for kind in KINDS
        for qualname in entry[kind]
    }
    gated = {name for name in NAMES if name.startswith(prefix)}
    assert gated, prefix
    assert gated <= listed, sorted(gated - listed)
    untriaged = sorted(
        name
        for name in missed()
        if name.startswith(prefix) and reach.allowed(name) is None
    )
    assert not untriaged


def test_an_allow_entry_covers_names_below_it_only(monkeypatch):
    monkeypatch.setattr(reach, "ALLOW", {"repro.spec.history": "why"})
    assert reach.allowed("repro.spec.history") == "repro.spec.history"
    assert reach.allowed("repro.spec.history.History.project")
    assert reach.allowed("repro.spec.historyless.f") is None
    assert reach.allowed("repro.spec") is None


def test_a_recorded_nested_function_counts_for_its_parent(tmp_path):
    module = reach.PACKAGE / "engine" / "shard.py"
    package = reach.PACKAGE / "engine" / "__init__.py"
    (tmp_path / "7.json").write_text(
        json.dumps(
            [
                [str(module), "lane_fill"],
                [str(module), "ShardMap.shard_of.<locals>.key"],
                [str(package), "helper"],
            ]
        )
    )
    assert reach.reached(tmp_path) == {
        ("repro.engine.shard", "lane_fill"),
        ("repro.engine.shard", "ShardMap.shard_of"),
        ("repro.engine", "helper"),
    }


def test_the_summary_counts_the_modules():
    summary = TABLE["summary"]
    for kind in KINDS:
        assert summary[kind] == sum(
            len(entry[kind]) for entry in TABLE["modules"].values()
        )
    for kind in KINDS[1:]:
        assert summary[f"{kind}_lines"] == sum(
            sum(entry[kind].values()) for entry in TABLE["modules"].values()
        )
    assert summary["functions"] == sum(summary[kind] for kind in KINDS)
    assert summary["untriaged_gated"] == 0
    assert tuple(TABLE["hook_failures"]) == reach.HOOK_FAILURES
