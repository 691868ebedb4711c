"""The committed product-reach table (``benchmarks/baselines/REACH.json``)
against ``src/``.

``scripts/reach.py`` measures which functions the product runs (minutes,
under a profile hook); these checks are cheap and read only the table
and the source: every entry names a function that exists, the table
covers every function of the package and every config field, and no
function that the product misses, and no config field it runs with fewer
than two values, is left without an allow-list reason.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from repro import config

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
#: ``{dotted field name: its product values}`` of every config field.
CONFIG = {
    f"repro.config.{cls}.{field}": values
    for cls, fields in TABLE["config"].items()
    for field, values in fields.items()
}


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
        assert reason.strip() and "\n" not in reason, entry
        if entry in CONFIG:
            assert len(CONFIG[entry]) < 2, (
                f"{entry} is allow-listed but the product varies it"
            )
            continue
        assert any(
            name == entry or name.startswith(entry + ".") for name in NAMES
        ), entry
        assert any(
            name == entry or name.startswith(entry + ".") for name in covered
        ), f"{entry} is allow-listed but the product reaches all of it"


#: The kinds of reason an allow-list entry may give, as the reason opens.
RULES = re.compile(
    r"frozen wall-benchmark name"
    r"|the submit\(\)/run\(\) caller's read of its responses"
    r"|(reject|error) path:"
    r"|(abstract|base-class default):"
    r"|test (fake|probe):"
    r"|(Eq\. \d+'s witness|Reproduction note \d+'s evidence):"
    r"|a token's operation:"
    r"|debug text:"
    r"|a setting only tests vary:"
)


def test_every_allow_reason_names_its_rule():
    """An entry is kept for one of the allow-list's stated reasons, never
    just because nothing calls it yet."""
    unruled = {
        entry: reason
        for entry, reason in reach.ALLOW.items()
        if not RULES.match(reason)
    }
    assert not unruled


def test_the_whole_package_is_covered_and_triaged():
    """Every function in ``src/repro`` is in the table, and each one the
    product misses is allow-listed with a reason."""
    listed = {
        f"{module}.{qualname}"
        for module, entry in TABLE["modules"].items()
        for kind in KINDS
        for qualname in entry[kind]
    }
    assert NAMES == listed, sorted(NAMES ^ listed)
    untriaged = sorted(name for name in missed() if reach.allowed(name) is None)
    assert not untriaged


def test_every_config_field_is_varied_or_allowed():
    """The table holds every field of every recorded config class, and a
    field the product runs with fewer than two values — a constant in
    disguise — is allow-listed with a reason or deleted."""
    source = reach.config_fields()
    assert source == {
        cls: [field.name for field in dataclasses.fields(getattr(config, cls))]
        for cls in reach.CONFIGS
    }
    # The table is written with sorted keys.
    table = {cls: sorted(fields) for cls, fields in TABLE["config"].items()}
    assert table == {cls: sorted(fields) for cls, fields in source.items()}
    fixed = sorted(
        name
        for name, values in CONFIG.items()
        if len(values) < 2 and reach.allowed(name) is None
    )
    assert not fixed
    assert TABLE["summary"]["config_fields"] == len(CONFIG)
    assert TABLE["summary"]["config_untriaged"] == 0


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


def test_configs_map_each_field_to_its_distinct_values(tmp_path):
    engine = {"num_lanes": 4, "window": 64, "seed": 0}
    (tmp_path / "7.configs").write_text(
        json.dumps(
            [
                ["EngineConfig", json.dumps(engine)],
                ["EngineConfig", json.dumps({**engine, "window": 16})],
            ]
        )
    )
    (tmp_path / "8.configs").write_text(
        json.dumps([["EngineConfig", json.dumps({**engine, "seed": None})]])
    )
    found = reach.configs(tmp_path)["EngineConfig"]
    assert found["num_lanes"] == [4]
    assert found["window"] == [16, 64]
    assert found["seed"] == [0, None]
    assert found["pipeline_depth"] == []  # a field nothing recorded


def test_a_field_the_product_fixes_is_untriaged_unless_allowed():
    config = {
        "EngineConfig": {
            "window": [64],
            "seed": [0, 7],
            "mempool_capacity": [None],
        }
    }
    summary = reach.table(set(), set(), config, [])["summary"]
    # ``window`` is fixed and unexplained; ``seed`` varies, and
    # ``mempool_capacity`` is allow-listed.
    assert (summary["config_fields"], summary["config_untriaged"]) == (3, 1)


def test_the_hook_records_every_config_built(tmp_path):
    """The sitecustomize hook, in a child interpreter, snapshots each
    config at the return of its ``__post_init__`` — once per distinct
    value, a nested fault plan included."""
    (tmp_path / "hook").mkdir()
    (tmp_path / "out").mkdir()
    (tmp_path / "hook" / "sitecustomize.py").write_text(reach.SITECUSTOMIZE)
    program = (
        "from repro.config import ClusterConfig, EngineConfig\n"
        "EngineConfig(window=8); EngineConfig(window=8)\n"
        "ClusterConfig(num_nodes=2)\n"
    )
    subprocess.run(
        [sys.executable, "-c", program],
        env=reach.environment(tmp_path / "hook", tmp_path / "out"),
        check=True,
    )
    found = reach.configs(tmp_path / "out")
    assert found["EngineConfig"]["window"] == [8]
    assert found["ClusterConfig"]["num_nodes"] == [2]
    # The default plan, built once at import as ClusterConfig's default.
    assert found["FaultConfig"]["enabled"] == [False]
    assert found["ClusterConfig"]["fault"] == [
        {"crashes": [], "delays": [], "drops": [], "enabled": False, "seed": 0}
    ]


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
    assert summary["untriaged"] == 0
    assert tuple(TABLE["hook_failures"]) == reach.HOOK_FAILURES
