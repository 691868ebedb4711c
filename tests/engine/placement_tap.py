"""A test-side tap on the engine's window placements.

The engine applies every window in submission order when it plans it, so
a response never depends on the schedule: a scheduler that starts two
dependent ops in the wrong order would leave state and responses right
and only the virtual timeline wrong.  :func:`tap_placements` watches that
timeline instead.  It wraps ``engine._place_window_dag``, reads each
window's placements and stalls as the units the tracer would record
(:func:`~repro.engine.pipeline.scheduled_units`), and holds every op to
the three floors the schedule owes, each derived in ``tests/reference.py``:

* ``reordered`` — each non-COMMUTE pair of the window's reference plan
  runs in submission order: the later op starts no earlier than the
  earlier one finishes;
* ``floored`` — no op starts before its window's admission or the
  cross-window frontier, the tap's own
  :class:`~tests.reference.Frontier` folded over every op placed before
  the window (an unknown footprint waits for everything, and gates
  everything after it);
* ``early`` — a contended op starts no earlier than its sync lane
  committed the order (the ``op_sync`` the engine hands the placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.pipeline import scheduled_units
from tests import reference


@dataclass
class PlacementTap:
    """What the tap saw, in placement order."""

    #: Every placed unit (:class:`~repro.engine.pipeline.ScheduledUnit`).
    units: list = field(default_factory=list)
    #: ``(earlier_seq, later_seq)`` of non-commuting ops of one window
    #: started out of submission order.
    reordered: list[tuple[int, int]] = field(default_factory=list)
    #: ``seq`` of ops started before their admission or frontier floor.
    floored: list[int] = field(default_factory=list)
    #: ``seq`` of contended ops started before their sync completion.
    early: list[int] = field(default_factory=list)

    @property
    def flagged(self) -> list:
        return self.reordered + self.floored + self.early


def tap_placements(engine) -> PlacementTap:
    """Wrap ``engine._place_window_dag`` so that every window's placements
    are checked against the reference; install before the run."""
    tap = PlacementTap()
    frontier = reference.Frontier()
    place = engine._place_window_dag

    def tapped(plan, t_classify, op_sync):
        placed, stalls = place(plan, t_classify, op_sync)
        seqs = [pending.seq for pending in plan.ops]
        expected = reference.plan(engine.object_type, plan.ops)
        for p, k in reference.broken_edges(expected.preds, placed):
            tap.reordered.append((seqs[p], seqs[k]))
        for i, footprint in enumerate(expected.footprints):
            if placed[i][0] < frontier.floor(footprint, t_classify):
                tap.floored.append(seqs[i])
        for i, done in op_sync.items():
            if placed[i][0] < done:
                tap.early.append(seqs[i])
        for (_, finish, _), footprint in zip(placed, expected.footprints):
            frontier.record(footprint, finish)
        tap.units += scheduled_units(plan, op_sync, placed, stalls)
        return placed, stalls

    engine._place_window_dag = tapped
    return tap
