"""Unit tests for :mod:`repro.faults` and :class:`FaultConfig`.

The fault layer below the cluster: config validation,
the cluster's injector wiring, and the injector's crash lifecycle and
network filter on a bare simulator — deterministic per seed, drop rules
first match wins, delay rules accumulating.
"""

from __future__ import annotations

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, FaultConfig
from repro.errors import ClusterError
from repro.faults import FaultInjector
from repro.net.network import Message
from repro.objects.erc20 import ERC20TokenType
from repro.net.simulation import Simulator


# -- FaultConfig ----------------------------------------------------------


def test_fault_config_normalizes_pair_crashes_to_permanent():
    config = FaultConfig(enabled=True, crashes=((2, 8.0),))
    assert config.crashes == ((2, 8.0, None),)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"crashes": ((1, 5.0, 5.0),)},  # restart_at must be after crash_at
        {"crashes": ((1, 5.0, 4.0),)},
        {"crashes": ((-1, 5.0),)},
        {"crashes": ((1, -1.0),)},
        {"crashes": ((1,),)},
        {"drops": (("cl_result", 1.5, 0.0, 10.0),)},
        {"drops": (("cl_result", 0.5, 10.0, 5.0),)},
        {"drops": (("cl_result", 0.5),)},
        {"delays": (("cl_result", -1.0, 0.5),)},
        {"delays": (("cl_result", 1.0, 2.0),)},
        {"delays": (("cl_result", 1.0),)},
    ],
)
def test_fault_config_rejects_malformed_rules(kwargs):
    with pytest.raises(ClusterError):
        FaultConfig(enabled=True, **kwargs)


def test_cluster_config_requires_recovery_for_crash_schedules():
    with pytest.raises(ClusterError, match="result_timeout"):
        ClusterConfig(
            fault=FaultConfig(enabled=True, crashes=((1, 5.0),))
        )


def test_fault_config_normalizes_a_mixed_crash_list():
    config = FaultConfig(enabled=True, crashes=[(1, 5.0, 20.0), (2, 8.0)])
    assert config.crashes == ((1, 5.0, 20.0), (2, 8.0, None))


# -- the cluster's injector -----------------------------------------------


@pytest.mark.parametrize(
    "fault",
    [
        FaultConfig(),
        FaultConfig(crashes=((1, 5.0),)),
        FaultConfig(enabled=True),
    ],
    ids=["default", "disabled_with_crashes", "enabled"],
)
def test_cluster_builds_an_injector_iff_the_plan_is_enabled(fault):
    cluster = TokenCluster(
        ERC20TokenType(4, total_supply=40),
        ClusterConfig(num_nodes=2, fault=fault),
    )
    if fault.enabled:
        assert cluster.injector.config is fault
        assert cluster.network.faults is cluster.injector
    else:
        assert cluster.injector is None and cluster.network.faults is None


# -- FaultInjector --------------------------------------------------------


def make_injector(**plan) -> tuple[FaultInjector, Simulator]:
    simulator = Simulator()
    config = FaultConfig(enabled=True, **plan)
    return FaultInjector(config, simulator), simulator


def test_injector_fires_crash_and_restart_callbacks_in_order():
    injector, simulator = make_injector(crashes=((1, 5.0, 9.0), (2, 7.0)))
    events = []
    injector.on_crash = lambda node: events.append(
        ("crash", node, simulator.now)
    )
    injector.on_restart = lambda node: events.append(
        ("restart", node, simulator.now)
    )
    injector.install()
    simulator.run()
    assert events == [
        ("crash", 1, 5.0),
        ("crash", 2, 7.0),
        ("restart", 1, 9.0),
    ]
    assert injector.crashes == 2 and injector.restarts == 1
    assert injector.is_down(2) and not injector.is_down(1)


def test_injector_install_is_single_shot():
    injector, _ = make_injector(crashes=((1, 5.0),))
    injector.install()
    with pytest.raises(ClusterError):
        injector.install()


def test_fence_is_idempotent_and_counted_separately():
    injector, _ = make_injector()
    injector.fence(3)
    injector.fence(3)
    assert injector.fenced == 1
    assert injector.is_down(3)
    assert injector.crashes == 0


def message(src: int, dst: int, message_type: str = "cl_result") -> Message:
    return Message(src=src, dst=dst, type=message_type, payload={})


def test_down_endpoints_lose_messages_outright():
    injector, _ = make_injector()
    injector.fence(1)
    assert injector.disposition(message(1, 0)) == (True, 0.0)
    assert injector.disposition(message(0, 1)) == (True, 0.0)
    assert injector.disposition(message(0, 2)) == (False, 0.0)
    assert injector.messages_dropped == 2


def test_drop_rules_respect_type_and_window():
    injector, simulator = make_injector(
        drops=(("cl_result", 1.0, 5.0, 10.0),)
    )
    assert injector.disposition(message(0, 1)) == (False, 0.0)  # before
    simulator.schedule_at(6.0, lambda: None)
    simulator.run()
    assert injector.disposition(message(0, 1, "cl_run")) == (False, 0.0)
    assert injector.disposition(message(0, 1)) == (True, 0.0)  # in window
    simulator.schedule_at(10.0, lambda: None)
    simulator.run()
    assert injector.disposition(message(0, 1)) == (False, 0.0)  # past end


def test_delay_rules_accumulate_and_replay_per_seed():
    def decisions(seed: int) -> list[tuple[bool, float]]:
        injector, _ = make_injector(
            delays=(
                ("cl_result", 2.0, 0.5),
                ("cl_result", 1.0, 1.0),
            ),
            seed=seed,
        )
        return [injector.disposition(message(0, 1)) for _ in range(32)]

    first = decisions(11)
    assert first == decisions(11)  # deterministic per seed
    assert first != decisions(12)  # and the dice are really consulted
    extras = {extra for _, extra in first}
    # The certain rule always adds 1.0; the coin-flip rule sometimes
    # stacks its 2.0 on top.
    assert extras == {1.0, 3.0}
