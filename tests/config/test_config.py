"""The unified config API.

:class:`repro.config.EngineConfig` / :class:`repro.config.ClusterConfig`
are the one home of the run knobs.  These tests pin the promises the
constructors and the bench baselines rest on:

* **snapshot** — ``as_dict()`` is a plain-JSON copy of every field
  (bench baselines embed configs through exactly this path, and
  ``scripts/obs.py gate`` refuses a baseline whose block differs);
* **one way in** — the constructors take the config and collaborators;
  a config field passed as a bare kwarg, or a mistyped knob, is a
  ``TypeError``.

Serial equivalence of every executor × depth × mix lives in
``tests/integration/test_serial_equivalence.py``.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.cluster import ClusterConfig, TokenCluster
from repro.config import EngineConfig, FaultConfig
from repro.engine import OpClassifier, PipelinedExecutor
from repro.errors import ClusterError, EngineError
from repro.net.network import UniformLatency
from repro.objects.erc20 import ERC20TokenType
from repro.obs.trace import TraceRecorder

ACCOUNTS = 48


def make_token():
    return ERC20TokenType(ACCOUNTS, total_supply=100 * ACCOUNTS)


class TestSnapshot:
    @pytest.mark.parametrize(
        "config",
        [
            EngineConfig(),
            EngineConfig(num_lanes=7, seed=3),
            EngineConfig(team_threshold=0, pipeline_depth=1),
            ClusterConfig(),
            ClusterConfig(num_nodes=2, mempool_capacity=17),
            ClusterConfig(
                result_timeout=8.0,
                fault=FaultConfig(enabled=True, crashes=((1, 5.0),)),
            ),
        ],
        # Positional ids: ``hash(None)`` is address-based before 3.12,
        # so a hash-derived id changes from process to process.
        ids=[f"{kind}{i}" for kind in ("engine", "cluster") for i in range(3)],
    )
    def test_as_dict_is_a_plain_json_snapshot_of_every_field(self, config):
        snapshot = config.as_dict()
        assert list(snapshot) == [field.name for field in fields(config)]
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_the_config_surface_is_pinned(self):
        """Six engine knobs and nine cluster knobs.  Gone: the team-lane
        GC knob (a lane lives as long as its pool), the op cost (every op
        costs one unit), the shard count (``max(16, 8 * num_nodes)``),
        the lease gain (a constant) and cooldown, and the constructors'
        latency model and classifier (each builds its own)."""
        assert len(fields(EngineConfig)) == 6
        assert len(fields(ClusterConfig)) == 9
        for name, value in (("lane_ttl", 32), ("op_cost", 1.0)):
            with pytest.raises(TypeError):
                EngineConfig(**{name: value})
        for name, value in (
            ("lane_ttl", None),
            ("op_cost", 1.0),
            ("num_shards", 16),
            ("lease_min_gain", 2),
            ("lease_cooldown", 0),
        ):
            with pytest.raises(TypeError):
                ClusterConfig(**{name: value})
        token = make_token()
        with pytest.raises(TypeError):
            TokenCluster(token, latency=UniformLatency(0.5, 1.5))
        with pytest.raises(TypeError):
            PipelinedExecutor(token, classifier=OpClassifier(token))

    def test_the_fields_are_named(self):
        """A knob added or renamed is a change of this list, on purpose."""
        assert [field.name for field in fields(EngineConfig)] == [
            "num_lanes",
            "window",
            "seed",
            "mempool_capacity",
            "team_threshold",
            "pipeline_depth",
        ]
        assert [field.name for field in fields(ClusterConfig)] == [
            "num_nodes",
            "lanes_per_node",
            "window",
            "seed",
            "mempool_capacity",
            "team_threshold",
            "pipeline_depth",
            "result_timeout",
            "fault",
        ]


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
        config = EngineConfig(team_threshold=0)
        assert PipelinedExecutor(make_token(), config).config is config
        assert PipelinedExecutor(make_token()).config == EngineConfig()
        config = ClusterConfig(num_nodes=2, pipeline_depth=3)
        assert TokenCluster(make_token(), config).config is config
        assert TokenCluster(make_token()).config == ClusterConfig()

    def test_collaborators_stay_keyword_arguments(self):
        token = make_token()
        tracer = TraceRecorder()
        engine = PipelinedExecutor(token, tracer=tracer)
        assert engine.tracer is tracer
        with pytest.raises(TypeError):
            PipelinedExecutor(token, EngineConfig(), tracer)


class TestBuiltCollaborators:
    """What a constructor kwarg used to supply is built in: one of each
    per entry point."""

    def test_the_engine_builds_its_own_classifier(self):
        token = make_token()
        first, second = PipelinedExecutor(token), PipelinedExecutor(token)
        assert type(first.classifier) is OpClassifier
        assert first.classifier.object_type is token
        assert first.classifier is not second.classifier

    def test_the_cluster_network_draws_uniform_latency(self):
        latency = TokenCluster(make_token()).network.latency
        assert type(latency) is UniformLatency
        assert (latency.low, latency.high) == (0.5, 1.5)


class TestValidation:
    def test_engine_validation_raises_engine_error(self):
        with pytest.raises(EngineError):
            EngineConfig(num_lanes=0)
        with pytest.raises(EngineError):
            EngineConfig(pipeline_depth=0)

    def test_cluster_validation_raises_cluster_error(self):
        with pytest.raises(ClusterError):
            ClusterConfig(num_nodes=0)

    # A crash of a node the cluster does not have used to build and then
    # fail mid-run with an IndexError from the crash handler.
    @pytest.mark.parametrize("node", [4, 9])
    def test_a_crash_outside_the_cluster_is_refused(self, node):
        fault = FaultConfig(enabled=True, crashes=((node, 5.0, 9.0),))
        with pytest.raises(ClusterError, match=f"crash node {node}"):
            ClusterConfig(num_nodes=4, result_timeout=8.0, fault=fault)

    def test_a_crash_of_the_last_node_is_accepted(self):
        fault = FaultConfig(enabled=True, crashes=((3, 5.0, 9.0),))
        config = ClusterConfig(num_nodes=4, result_timeout=8.0, fault=fault)
        assert config.fault.crashes == ((3, 5.0, 9.0),)

    # A disabled plan injects nothing, so like the result_timeout check
    # the range check leaves it alone.
    def test_a_disabled_plan_naming_a_missing_node_is_accepted(self):
        fault = FaultConfig(enabled=False, crashes=((9, 5.0, 9.0),))
        config = ClusterConfig(num_nodes=4, fault=fault)
        assert config.fault.crashes == ((9, 5.0, 9.0),)
