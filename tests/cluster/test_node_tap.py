"""The node placement monitor fires: one tampered placement per rule.

:func:`~tests.cluster.node_tap.tap_node_placements` is what holds the
cluster's node placements once apply ignores them, and every suite that
runs it asserts it flagged nothing — which a monitor that checked
nothing would pass too.  Each case here drives one node of the message
rig (``tests/cluster/test_node_units.py``) and edits what its scheduler
returns, under the monitor, so that one rule breaks; the monitor must
name exactly the ops that broke it, and flag nothing on the same run
left alone.
"""

from __future__ import annotations

import pytest

import repro.cluster.node as node_module
from tests.cluster.node_tap import tap_node_placements
from tests.cluster.test_node_units import PEER, Rig

RULES = ("edges", "floors", "gates", "overlaps")


def _chain(rig):
    rig.run_unit(0, [0, 1])


def _synced(rig):
    rig.run_unit(0, [0, 1], sync_ready=3.0)


def _leased(rig):
    rig.run_unit(0, [0, 1], leases=1)
    rig.simulator.run(until=3.0)
    rig.send("cl_lease_grant", src=PEER, shard=5, round=0, unit=0)


def _two_units(rig):
    rig.run_unit(0, [0], dag=None)
    rig.run_unit(1, [1], dag=None)


def _earlier(placed):
    return [(start - 2, finish - 2, lane) for start, finish, lane in placed]


#: rule -> (drive, scheduler tampered, edit, what the monitor must name).
#: The rig's messages land at 1.0; a two-op chain places at ``ready``
#: and ``ready + 1``, on two lanes.
CASES = {
    # The successor starts half-way through its predecessor.
    "edges": (
        _chain,
        "dag_list_schedule",
        lambda placed: [placed[0], (1.5, 2.5, placed[1][2])],
        [(0, 1)],
    ),
    # Placed at 3.0 and 4.0, behind the sync lane; moved to 1.0 and 2.0.
    "floors": (_synced, "dag_list_schedule", _earlier, [0, 1]),
    # The grant lands at 4.0; the ops are moved to 2.0 and 3.0.
    "gates": (_leased, "dag_list_schedule", _earlier, [0, 1]),
    # Two edge-free units side by side, both put on lane 0.
    "overlaps": (
        _two_units,
        "lane_fill",
        lambda placed: [(start, finish, 0) for start, finish, _ in placed],
        [(0, 1)],
    ),
}


@pytest.mark.parametrize("tampered", [False, True], ids=["as_is", "tampered"])
@pytest.mark.parametrize("rule", RULES)
def test_the_node_monitor_flags_exactly_the_broken_rule(
    monkeypatch, rule, tampered
):
    drive, scheduler, edit, named = CASES[rule]
    if tampered:
        place = getattr(node_module, scheduler)
        monkeypatch.setattr(
            node_module, scheduler, lambda *a, **k: edit(place(*a, **k))
        )
    rig = Rig()
    tap = tap_node_placements([rig.node])
    drive(rig)
    rig.simulator.run()
    assert rig.applied == [0, 1] and tap.placed == 2
    expected = {name: [] for name in RULES}
    if tampered:
        expected[rule] = named
    assert {name: getattr(tap, name) for name in RULES} == expected


def test_a_unit_a_crash_cancelled_leaves_the_record():
    """The crash cancels the running chain (placed on both lanes from
    1.0 to 4.0) before its ops finish; the restarted node spreads the
    replayed ops, edge-free, over the same lane time, and the monitor,
    having dropped the cancelled ops, flags nothing."""
    rig = Rig()
    tap = tap_node_placements([rig.node])
    rig.run_unit(0, [0, 1, 2])
    rig.simulator.run(until=1.5)
    rig.node.crash()
    rig.node.restart(owned_shards=set())
    rig.run_unit(1, [0, 1, 2], dag=None)
    rig.simulator.run()
    assert rig.applied == [0, 1, 2]
    assert tap.placed == 6 and tap.flagged == []
