"""Pair classification for the engine: the static footprint rule.

The engine must answer "which pending operations of a mempool window may
not be reordered against each other?", every round.  The semantic oracle
(:func:`repro.analysis.commutativity.analyze_pair`) answers exactly but
state-dependently; a state-dependent COMMUTE is *not* a licence to reorder
inside a batch whose intermediate states differ from the analyzed one.  The
:class:`OpClassifier` therefore schedules off the *static* footprint
analysis (:mod:`repro.objects.footprint`), whose verdicts hold at every
state and depend on operation type plus touched accounts, not on values.

A window's non-commuting pairs are found per *location*, not per pair:
:func:`repro.engine.rounds.plan_window` scans the window once, each op
looking up its earlier partners by the cells it touches
(:func:`repro.objects.footprint.window_preds`).  The paper's
synchronization groups are the spenders of one account, so only ops sharing
a cell can conflict and the commuting majority of a window is never
visited.  The all-pairs :meth:`OpClassifier.classify_window` serves
``test_classifier.py`` and the wall benchmark's frozen span only.

The rule's soundness against the semantic oracle is a proof obligation,
not a production path: :func:`repro.analysis.commutativity.
audit_static_kinds` checks it over a workload's windows, outside any
executor.
"""

from __future__ import annotations

from repro._records import field, record
from repro.engine.mempool import PendingOp
from repro.objects.footprint import OpFootprint, PairKind, static_pair_kind
from repro.spec.object_type import SequentialObjectType

#: The footprint rule's string -> its ``PairKind`` (same values).
_KINDS = {kind.value: kind for kind in PairKind}


@record
class ClassifierStats:
    """Counters for one classifier instance.

    ``pairs`` and ``by_kind`` count the pairs the classifier *examined*.
    On the scanned path (``plan_window``, one :meth:`count_window` per
    window) those are the edges its location scan found — COMMUTE pairs
    are never visited, so ``by_kind`` has no ``"commute"`` entry and
    ``pairs`` is the edge count, not ``n(n-1)/2``: a window's commute
    count is ``n(n-1)/2`` less the pairs it adds.
    :meth:`OpClassifier.classify_window` counts every pair it classifies.
    """

    pairs: int = 0
    #: Pairs classified by the footprint rule / by the conservative
    #: unknown-footprint fallback (they sum to ``pairs``).
    static_pairs: int = 0
    fallback_pairs: int = 0
    #: Always 0: the footprint and pair-kind memos are gone (the traffic
    #: does not repeat).  The names stay because
    #: ``benchmarks/wall/measure.py`` reads both by attribute — ROADMAP
    #: item 1(b) re-bases its two shares and deletes them.
    footprint_cache_hits: int = 0
    pair_cache_hits: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    def count_window(
        self, conflict: int, read_only: int, fallback: int
    ) -> None:
        """Count one window's scanned edges: ``fallback`` of them have an
        unknown footprint."""
        pairs = conflict + read_only
        self.pairs += pairs
        self.static_pairs += pairs - fallback
        self.fallback_pairs += fallback
        for value, count in (("conflict", conflict), ("read-only", read_only)):
            if count:
                self.by_kind[value] = self.by_kind.get(value, 0) + count

    def as_dict(self) -> dict:
        return {
            "pairs": self.pairs,
            "static_pairs": self.static_pairs,
            "fallback_pairs": self.fallback_pairs,
            "footprint_cache_hits": self.footprint_cache_hits,
            "pair_cache_hits": self.pair_cache_hits,
            "by_kind": dict(self.by_kind),
        }


class OpClassifier:
    """Pair classification against one sequential object type."""

    def __init__(self, object_type: SequentialObjectType) -> None:
        self.object_type = object_type
        self.stats = ClassifierStats()

    # ------------------------------------------------------------------

    def classify(self, first: PendingOp, second: PendingOp) -> PairKind:
        """Classify an (unordered) pair of pending operations.

        The verdict is state-independent: COMMUTE and READ_ONLY hold at
        every state, CONFLICT is conservative.
        """
        return self.classify_window([first, second])[0, 1]

    def _pair_kind(
        self, fp1: OpFootprint | None, fp2: OpFootprint | None
    ) -> PairKind:
        """The (counted) footprint-pair rule."""
        stats = self.stats
        if fp1 is None or fp2 is None:
            stats.fallback_pairs += 1
        else:
            stats.static_pairs += 1
        value = static_pair_kind(fp1, fp2)
        stats.pairs += 1
        stats.by_kind[value] = stats.by_kind.get(value, 0) + 1
        return _KINDS[value]

    def classify_window(
        self, window: list[PendingOp]
    ) -> dict[tuple[int, int], PairKind]:
        """All pairwise kinds over a window (``i < j`` indices), for
        ``test_classifier.py`` and the wall's frozen span; not on any hot
        path.  One footprint pass of its own, then the counted pair
        rule per index pair."""
        footprint = self.object_type.footprint
        footprints = [footprint(op.pid, op.operation) for op in window]
        return {
            (i, j): self._pair_kind(first, footprints[j])
            for i, first in enumerate(footprints)
            for j in range(i + 1, len(window))
        }
