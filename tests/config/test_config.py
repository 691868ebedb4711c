"""The unified config API.

:class:`repro.config.EngineConfig` / :class:`repro.config.ClusterConfig`
are the one home of the run knobs.  These tests pin the promises the
constructors and the bench baselines rest on:

* **round-trip** — ``as_dict()`` / ``from_dict()`` invert each other
  (bench baselines embed configs through exactly this path), and unknown
  keys fail loudly — including the keys of removed fields, so a baseline
  written before a path was deleted is refused, never reinterpreted;
* **one way in** — the constructors take the config and collaborators;
  a config field passed as a bare kwarg, or a mistyped knob, is a
  ``TypeError``.

Serial equivalence of every executor × depth × mix lives in
``tests/integration/test_serial_equivalence.py``.
"""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.cluster import ClusterConfig, TokenCluster
from repro.config import EngineConfig
from repro.engine import OpClassifier, PipelinedExecutor
from repro.errors import ClusterError, EngineError
from repro.objects.erc20 import ERC20TokenType

ACCOUNTS = 48

#: The ``config.cluster`` block of the baselines committed at e21f850
#: (the last commit with a scheduling-granularity field), verbatim.
PARENT_CLUSTER_BLOCK = {
    "dag_scheduling": True,
    "fault": {
        "crashes": [],
        "delays": [],
        "drops": [],
        "enabled": False,
        "seed": 0,
    },
    "lane_ttl": 32,
    "lanes_per_node": 4,
    "lease_cooldown": 0,
    "lease_min_gain": 2,
    "lease_timeout": None,
    "mempool_capacity": None,
    "num_nodes": 4,
    "num_shards": None,
    "op_cost": 1.0,
    "pipeline_depth": 2,
    "result_timeout": None,
    "seed": 0,
    "team_threshold": 4,
    "validate": False,
    "window": 64,
}


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(num_lanes=7, lane_ttl=None, seed=3),
            EngineConfig(team_threshold=0, pipeline_depth=1),
            ClusterConfig(),
            ClusterConfig(num_nodes=2, mempool_capacity=17),
            ClusterConfig(team_threshold=0, pipeline_depth=1, lane_ttl=None),
        ],
        # Positional ids: ``hash(None)`` is address-based before 3.12,
        # so a hash-derived id changes from process to process.
        ids=[f"{kind}{i}" for kind in ("engine", "cluster") for i in range(3)],
    )
    def test_as_dict_from_dict_round_trips(self, config):
        assert type(config).from_dict(config.as_dict()) == config

    def test_unknown_keys_fail_loudly(self):
        with pytest.raises(EngineError):
            EngineConfig.from_dict({"num_lanes": 4, "warp_drive": True})
        with pytest.raises(ClusterError):
            ClusterConfig.from_dict({"num_noodles": 4})

    def test_an_old_baseline_is_refused_not_reinterpreted(self):
        with pytest.raises(EngineError, match="dag_scheduling"):
            EngineConfig.from_dict({"dag_scheduling": False})
        with pytest.raises(EngineError, match="split_sync"):
            EngineConfig.from_dict({"split_sync": False})
        with pytest.raises(ClusterError, match="dag_scheduling"):
            ClusterConfig.from_dict(PARENT_CLUSTER_BLOCK)
        current = dict(PARENT_CLUSTER_BLOCK)
        del current["dag_scheduling"]
        with pytest.raises(ClusterError, match="lease_timeout"):
            ClusterConfig.from_dict(current)
        del current["lease_timeout"]
        with pytest.raises(ClusterError, match="validate"):
            ClusterConfig.from_dict(current)
        del current["validate"]
        assert ClusterConfig.from_dict(current) == ClusterConfig()

    def test_a_validate_key_is_refused(self):
        """The in-executor oracle cross-check is gone (the tests audit the
        static rule instead): a config that still asks for it is refused,
        on or off."""
        for flag in (False, True):
            with pytest.raises(EngineError, match="validate"):
                EngineConfig.from_dict({"validate": flag})
            with pytest.raises(ClusterError, match="validate"):
                ClusterConfig.from_dict({"validate": flag})
        assert len(fields(EngineConfig)) == 8
        assert len(fields(ClusterConfig)) == 14

    def test_validation_applies_to_round_tripped_values(self):
        with pytest.raises(EngineError):
            EngineConfig.from_dict({"window": 0})
        with pytest.raises(ClusterError):
            ClusterConfig.from_dict({"num_nodes": 0})


class TestTheConfigIsTheOnlyWay:
    """The constructors take a config and collaborators — nothing that
    restates a config field (there is no kwarg-override layer)."""

    @pytest.mark.parametrize(
        "name", [field.name for field in fields(EngineConfig)]
    )
    def test_an_engine_field_as_a_kwarg_is_a_type_error(self, name):
        value = getattr(EngineConfig(), name)
        with pytest.raises(TypeError):
            PipelinedExecutor(make_token(), **{name: value})

    @pytest.mark.parametrize(
        "name", [field.name for field in fields(ClusterConfig)]
    )
    def test_a_cluster_field_as_a_kwarg_is_a_type_error(self, name):
        value = getattr(ClusterConfig(), name)
        with pytest.raises(TypeError):
            TokenCluster(make_token(), **{name: value})

    def test_a_mistyped_knob_fails_in_the_dataclass(self):
        with pytest.raises(TypeError):
            EngineConfig(pipeline_dpeth=2)
        with pytest.raises(TypeError):
            ClusterConfig(lanes_per_nodes=4)

    def test_the_config_is_kept_verbatim(self):
        config = EngineConfig(team_threshold=0, lane_ttl=None)
        assert PipelinedExecutor(make_token(), config).config is config
        assert PipelinedExecutor(make_token()).config == EngineConfig()
        config = ClusterConfig(num_nodes=2, pipeline_depth=3)
        assert TokenCluster(make_token(), config).config is config
        assert TokenCluster(make_token()).config == ClusterConfig()

    def test_collaborators_stay_keyword_arguments(self):
        token = make_token()
        classifier = OpClassifier(token)
        engine = PipelinedExecutor(token, classifier=classifier)
        assert engine.classifier is classifier
        with pytest.raises(TypeError):
            PipelinedExecutor(token, EngineConfig(), classifier)


class TestValidation:
    def test_engine_validation_raises_engine_error(self):
        with pytest.raises(EngineError):
            EngineConfig(num_lanes=0)
        with pytest.raises(EngineError):
            EngineConfig(pipeline_depth=0)

    def test_cluster_validation_raises_cluster_error(self):
        with pytest.raises(ClusterError):
            ClusterConfig(num_nodes=0)
        with pytest.raises(ClusterError):
            ClusterConfig(lane_ttl=0)

    # Accepted, a non-positive op cost would shrink the engine's virtual
    # time below its op count and make a cluster node schedule events in
    # the past; the node's lane fill also needs ``op_cost > 0``.
    @pytest.mark.parametrize("op_cost", [0, 0.0, -1.0, float("nan")])
    def test_engine_refuses_a_non_positive_op_cost(self, op_cost):
        with pytest.raises(EngineError, match="op_cost must be positive"):
            EngineConfig(op_cost=op_cost)

    @pytest.mark.parametrize("op_cost", [0, 0.0, -1.0, float("nan")])
    def test_cluster_refuses_a_non_positive_op_cost(self, op_cost):
        with pytest.raises(ClusterError, match="op_cost must be positive"):
            ClusterConfig(op_cost=op_cost)
