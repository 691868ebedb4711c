"""A test-side monitor on the cluster nodes' unit placements.

A node applies each unit's ops as shipped, in submission order
(``engine/shard.py``'s module docstring), so a response never depends on
where the node placed an op: a node that started a DAG successor before
its predecessor finished, ran ahead of its sync lane or its lease
grants, or stacked two ops on one lane would leave state and responses
right and only the virtual timeline wrong.  :func:`tap_node_placements`
watches that timeline, the node-side sibling of
``tests/engine/placement_tap.py``.  It holds every placement to four
rules, read off the messages the node received rather than its records:

* ``edges`` — each shipped DAG edge: the predecessor finishes at or
  before its successor starts (:func:`tests.reference.broken_edges`; the
  plan tap holds the DAG itself to the reference plan);
* ``floors`` — no op starts before the unit's ``sync_ready``;
* ``gates`` — no op starts before the unit's ``cl_run`` and its last
  required lease grant (or the revoke standing in for it) reached the
  node; grants count distinct shards;
* ``overlaps`` — no two ops share a node lane at once.

A unit that a crash cancelled is dropped from the record: its ops never
ran, and the restarted node may reuse their lane time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import repro.cluster.node as node_module
from tests import reference


@dataclass
class NodeTap:
    """What the monitor saw, across every tapped node."""

    #: Ops placed and checked.
    placed: int = 0
    #: ``(pred_seq, succ_seq)`` of DAG edges whose successor started
    #: before its predecessor finished.
    edges: list[tuple[int, int]] = field(default_factory=list)
    #: ``seq`` of ops started before their unit's ``sync_ready``.
    floors: list[int] = field(default_factory=list)
    #: ``seq`` of ops started before their unit's ``cl_run`` and lease
    #: grants were all in.
    gates: list[int] = field(default_factory=list)
    #: ``(seq, seq)`` of ops that overlap on one node lane.
    overlaps: list[tuple[int, int]] = field(default_factory=list)

    @property
    def flagged(self) -> list:
        return self.edges + self.floors + self.gates + self.overlaps


def tap_node_placements(nodes) -> NodeTap:
    """Wrap each node's ``cl_run`` / grant / revoke handlers, its unit
    runner, its unit finish and its crash; install before the run."""
    tap = NodeTap()
    for node in nodes:
        _watch(tap, node)
    return tap


def _watch(tap: NodeTap, node) -> None:
    #: Unit key -> ``(cl_run payload, arrival)``, until the unit runs.
    runs: dict = {}
    #: Unit key -> shard -> first grant arrival.
    grants: dict = {}
    #: Lane -> its placed ``(start, finish, seq)``, ascending.
    lanes: dict[int, list] = {}
    #: Unit key -> its lane entries, until the unit finishes.
    running: dict = {}

    def on_run(handle):
        def tapped(message):
            body = message.payload
            runs[body["round"], body["unit"]] = (body, node.now)
            handle(message)

        return tapped

    def on_grant(handle):
        def tapped(message):
            body = message.payload
            if body["round"] >= 0:
                key = (body["round"], body["unit"])
                grants.setdefault(key, {}).setdefault(body["shard"], node.now)
            handle(message)

        return tapped

    def on_place(place, seen):
        def tapped(*args, **kwargs):
            placed = place(*args, **kwargs)
            seen.append(placed)
            return placed

        return tapped

    def maybe_run(run):
        def tapped(key, unit):
            seen: list = []
            dag_list_schedule = node_module.dag_list_schedule
            lane_fill = node_module.lane_fill
            node_module.dag_list_schedule = on_place(dag_list_schedule, seen)
            node_module.lane_fill = on_place(lane_fill, seen)
            try:
                run(key, unit)
            finally:
                node_module.dag_list_schedule = dag_list_schedule
                node_module.lane_fill = lane_fill
            if seen:
                check(key, seen[0])

        return tapped

    def check(key, placed):
        body, arrival = runs.pop(key)
        ops, dag = body["ops"], body["dag"]
        seqs = [op.seq for op in ops]
        tap.placed += len(ops)
        needed, arrived = body["leases"], sorted(grants.pop(key, {}).values())
        gate = arrival
        if len(arrived) < needed:
            gate = math.inf
        elif needed:
            gate = max(arrival, arrived[needed - 1])
        preds = dag.preds if dag is not None else ()
        for p, k in reference.broken_edges(preds, placed):
            tap.edges.append((seqs[p], seqs[k]))
        entries = running[key] = []
        for seq, (start, finish, lane) in zip(seqs, placed):
            if start < body["sync_ready"]:
                tap.floors.append(seq)
            if start < gate:
                tap.gates.append(seq)
            timeline = lanes.setdefault(lane, [])
            entry = (start, finish, seq)
            at = bisect_left(timeline, entry)
            timeline.insert(at, entry)
            if at and timeline[at - 1][1] > start:
                tap.overlaps.append((timeline[at - 1][2], seq))
            if at + 1 < len(timeline) and timeline[at + 1][0] < finish:
                tap.overlaps.append((seq, timeline[at + 1][2]))
            entries.append((lane, entry))

    def finish_unit(finish):
        def tapped(key, *args):
            del running[key]
            finish(key, *args)

        return tapped

    def crash(lose):
        def tapped():
            for entries in running.values():
                for lane, entry in entries:
                    lanes[lane].remove(entry)
            running.clear()
            runs.clear()
            grants.clear()
            lose()

        return tapped

    node.handle_cl_run = on_run(node.handle_cl_run)
    node.handle_cl_lease_grant = on_grant(node.handle_cl_lease_grant)
    node.handle_cl_lease_revoke = on_grant(node.handle_cl_lease_revoke)
    node._maybe_run_unit = maybe_run(node._maybe_run_unit)
    node._finish_unit = finish_unit(node._finish_unit)
    node.crash = crash(node.crash)
