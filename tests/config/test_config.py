"""The unified config API.

:class:`repro.config.EngineConfig` / :class:`repro.config.ClusterConfig`
are the one home of the run knobs.  These tests pin the promises the
constructors and the bench baselines rest on:

* **round-trip** — ``as_dict()`` / ``from_dict()`` invert each other
  (bench baselines embed configs through exactly this path), and unknown
  keys fail loudly — including the keys of removed fields, so a baseline
  written before a path was deleted is refused, never reinterpreted;
* **precedence** — an explicit kwarg beats the ``config=`` value, which
  beats the dataclass default; and a mistyped knob raises a TypeError
  instead of vanishing into a kwargs sink.

Serial equivalence of every executor × depth × mix lives in
``tests/integration/test_serial_equivalence.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterConfig, TokenCluster
from repro.config import EngineConfig
from repro.engine import BatchExecutor, PipelinedExecutor
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
        ids=lambda c: type(c).__name__ + str(hash(c) % 997),
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
        assert ClusterConfig.from_dict(current) == ClusterConfig()

    def test_validation_applies_to_round_tripped_values(self):
        with pytest.raises(EngineError):
            EngineConfig.from_dict({"window": 0})
        with pytest.raises(ClusterError):
            ClusterConfig.from_dict({"num_nodes": 0})


class TestPrecedence:
    def test_kwarg_beats_config_beats_default(self):
        # Default: team lanes up to 4.  Config: off.  Kwarg: up to 2.
        config = EngineConfig(team_threshold=0, lane_ttl=None)
        engine = BatchExecutor(make_token(), config)
        assert engine.config.team_threshold == 0
        engine = BatchExecutor(make_token(), config, team_threshold=2)
        assert engine.config.team_threshold == 2
        assert engine.config.lane_ttl is None  # config still wins here
        engine = BatchExecutor(make_token())
        assert engine.config == EngineConfig()

    def test_cluster_kwarg_beats_config(self):
        cluster = TokenCluster(
            make_token(),
            ClusterConfig(team_threshold=0, pipeline_depth=1),
            num_nodes=2,
            pipeline_depth=3,
        )
        assert cluster.config.num_nodes == 2
        assert cluster.config.pipeline_depth == 3
        assert cluster.config.team_threshold == 0

    def test_explicit_none_is_an_override_not_unset(self):
        engine = BatchExecutor(
            make_token(), EngineConfig(lane_ttl=8), lane_ttl=None
        )
        assert engine.config.lane_ttl is None

    def test_pipelined_rejects_a_mistyped_knob(self):
        with pytest.raises(TypeError):
            PipelinedExecutor(make_token(), pipeline_dpeth=2)

    def test_batch_rejects_a_mistyped_knob(self):
        with pytest.raises(TypeError):
            BatchExecutor(make_token(), num_lane=4)

    def test_cluster_rejects_a_mistyped_knob(self):
        with pytest.raises(TypeError):
            TokenCluster(make_token(), lanes_per_nodes=4)


class TestValidationThroughConstructors:
    def test_engine_validation_raises_engine_error(self):
        with pytest.raises(EngineError):
            BatchExecutor(make_token(), num_lanes=0)
        with pytest.raises(EngineError):
            PipelinedExecutor(make_token(), pipeline_depth=0)

    def test_cluster_validation_raises_cluster_error(self):
        with pytest.raises(ClusterError):
            TokenCluster(make_token(), num_nodes=0)
        with pytest.raises(ClusterError):
            TokenCluster(make_token(), lane_ttl=0)
