"""A test-side tap on the engine's window placements.

The engine applies every window in submission order when it plans it, so
a response never depends on the schedule: a scheduler that starts two
dependent ops in the wrong order would leave state and responses right
and only the virtual timeline wrong.  :func:`tap_placements` watches that
timeline instead.  It wraps ``engine._place_window_dag``, reads each
window's placements and stalls as the units the tracer would record
(:func:`~repro.engine.pipeline.scheduled_units`), and holds every placed
unit, across windows, to the two orders the schedule owes:

* two ops whose static footprints do not commute
  (:func:`~repro.objects.footprint.static_pair_kind`; an unknown
  footprint conflicts with everything) run in submission order — the
  later one starts no earlier than the earlier one finishes.  One
  pairwise check covers the DAG edges, the cross-window frontier and the
  unknown footprints;
* a contended op starts no earlier than its sync lane committed the
  order (the ``op_sync`` the engine hands the placement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from repro.engine.pipeline import scheduled_units
from repro.objects.footprint import static_pair_kind


@dataclass
class PlacementTap:
    """What the tap saw, in placement order."""

    #: Every placed unit (:class:`~repro.engine.pipeline.ScheduledUnit`).
    units: list = field(default_factory=list)
    #: ``(earlier_seq, later_seq)`` of non-commuting ops started out of
    #: submission order.
    reordered: list[tuple[int, int]] = field(default_factory=list)
    #: ``seq`` of contended ops started before their sync completion.
    early: list[int] = field(default_factory=list)

    @property
    def flagged(self) -> list:
        return self.reordered + self.early


def tap_placements(engine) -> PlacementTap:
    """Wrap ``engine._place_window_dag`` so that every window's placed
    units are checked against every unit placed before them and among
    themselves; install before the run."""
    tap = PlacementTap()
    place = engine._place_window_dag

    def tapped(plan, t_classify, op_sync):
        placed, stalls = place(plan, t_classify, op_sync)
        scheduled = scheduled_units(plan, op_sync, placed, stalls)
        by_seq = {unit.op.seq: unit for unit in scheduled}
        for i, done in op_sync.items():
            unit = by_seq[plan.ops[i].seq]
            if unit.start < done:
                tap.early.append(unit.op.seq)
        # An earlier unit that precedes the whole window in submission
        # order and finished before its first start pairs with none of it.
        first_start = min(unit.start for unit in scheduled)
        low = min(by_seq)
        live = [
            unit
            for unit in tap.units
            if unit.finish > first_start or unit.op.seq > low
        ]
        for k, unit in enumerate(scheduled):
            for other in chain(live, scheduled[:k]):
                first, second = other, unit
                if first.op.seq > second.op.seq:
                    first, second = second, first
                if second.start < first.finish and (
                    static_pair_kind(first.footprint, second.footprint)
                    != "commute"
                ):
                    tap.reordered.append((first.op.seq, second.op.seq))
        tap.units += scheduled
        return placed, stalls

    engine._place_window_dag = tapped
    return tap
