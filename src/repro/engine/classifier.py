"""Pair classification for the engine: static fast path + semantic oracle.

The engine must answer "which pending operations of a mempool window may
not be reordered against each other?", every round.  The semantic oracle
(:func:`repro.analysis.commutativity.analyze_pair`) answers exactly but
state-dependently; a state-dependent COMMUTE is *not* a licence to reorder
inside a batch whose intermediate states differ from the analyzed one.  The
:class:`OpClassifier` therefore schedules off the *static* footprint
analysis (:mod:`repro.objects.footprint`), whose verdicts hold at every
state and depend on operation type plus touched accounts, not on values.

A window's non-commuting pairs are found per *location*, not per pair
(``ConflictGraph.build`` over
:func:`repro.objects.footprint.conflict_candidates`): the paper's
synchronization groups are the spenders of one account, so only ops sharing
a cell can conflict and the commuting majority of a window is never
visited.  The all-pairs :meth:`OpClassifier.classify_window` survives as
the oracle ``ConflictGraph.build`` checks the index against under
``validate=True``.

``validate=True`` cross-checks every static verdict against the semantic
oracle at the state the caller supplies, enforcing the soundness contract:

* static COMMUTE   ⇒ oracle COMMUTE;
* static READ_ONLY ⇒ oracle READ_ONLY or COMMUTE;
* static CONFLICT  ⇒ anything (the conservative fallback) — but the
  classifier counts how often the oracle confirms a genuine conflict, the
  *precision* statistic the benchmark reports.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.analysis.commutativity import (
    CachedPairAnalyzer,
    Invocation,
    PairKind,
)
from repro.engine.mempool import PendingOp
from repro.errors import EngineError
from repro.objects.footprint import OpFootprint, static_pair_kind
from repro.spec.object_type import SequentialObjectType

#: The footprint rule's string -> its ``PairKind`` (same values).
_KINDS = {kind.value: kind for kind in PairKind}


class ClassifierValidationError(EngineError):
    """The static fast path claimed more than the semantic oracle grants."""


@dataclass
class ClassifierStats:
    """Counters for one classifier instance.

    ``pairs`` and ``by_kind`` count the pairs the classifier *examined*.
    On the indexed path (``ConflictGraph.build``, one :meth:`count_window`
    per window) those are the window's non-commuting candidates only —
    COMMUTE pairs are never visited, so ``by_kind`` has no ``"commute"``
    entry and ``pairs`` is the edge count, not ``n(n-1)/2``.  Under
    ``validate=True`` the counters are the all-pairs oracle pass's: every
    pair, commuting ones included.  A window's commute count is
    ``n(n-1)/2 - len(graph.edges)`` either way.
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
    validated: int = 0
    #: Static-CONFLICT pairs the oracle confirmed as CONFLICT at the
    #: validation state (precision numerator; denominator below).
    confirmed_conflicts: int = 0
    checked_conflicts: int = 0
    by_kind: dict[str, int] = field(default_factory=dict)

    @property
    def conflict_precision(self) -> float:
        """Fraction of validated static conflicts that were real conflicts."""
        if not self.checked_conflicts:
            return 1.0
        return self.confirmed_conflicts / self.checked_conflicts

    def count_window(
        self, conflict: int, read_only: int, fallback: int
    ) -> None:
        """Count one window's indexed edges (each was one candidate):
        ``fallback`` of them have an unknown footprint."""
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
            "validated": self.validated,
            "conflict_precision": self.conflict_precision,
            "by_kind": dict(self.by_kind),
        }


class OpClassifier:
    """Pair classification against one sequential object type."""

    def __init__(
        self,
        object_type: SequentialObjectType,
        validate: bool = False,
    ) -> None:
        self.object_type = object_type
        self.validate = validate
        self.oracle = CachedPairAnalyzer(object_type)
        self.stats = ClassifierStats()
        self._validation_state = None

    # ------------------------------------------------------------------

    def footprint(self, op: PendingOp) -> OpFootprint | None:
        """The static footprint of one pending operation."""
        return self.object_type.footprint(op.pid, op.operation)

    def classify(
        self, first: PendingOp, second: PendingOp, state=None
    ) -> PairKind:
        """Classify an (unordered) pair of pending operations.

        The verdict is state-independent: COMMUTE and READ_ONLY hold at
        every state, CONFLICT is conservative.  When ``validate`` is on and
        ``state`` is given, the verdict is cross-checked against the
        semantic oracle at that state.
        """
        kind = self._pair_kind(self.footprint(first), self.footprint(second))
        if self.validate and state is not None:
            self._check_against_oracle(kind, first, second, state)
        return kind

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

    def needs_consensus(
        self, first: PendingOp, second: PendingOp, footprints=None
    ) -> bool:
        """True when ordering this pair requires total order (consensus).

        A conflicting pair of *distinct* processes needs consensus exactly
        when the two footprints contend on a shared location (see
        ``OpFootprint.contended``) — the engine-level image of the paper's
        synchronization groups.  Conflicts without contention (a blind
        credit enabling a guarded spend) only need an order, which the
        barrier provides for free.  Unknown footprints are conservative.
        ``footprints`` is the pair's footprints when the caller holds them
        (a window's graph does).
        """
        if first.pid == second.pid:
            return False  # program order of one process needs no consensus
        fp1, fp2 = footprints or (self.footprint(first), self.footprint(second))
        if fp1 is None or fp2 is None:
            return True
        return fp1.contends_with(fp2)

    @contextmanager
    def uncounted(self):
        """Run classifier calls without leaving a trace in :attr:`stats`
        (``ConflictGraph.build`` re-derives the edges under ``validate``
        and must not count every pair twice)."""
        stats, self.stats = self.stats, ClassifierStats()
        try:
            yield
        finally:
            self.stats = stats

    def classify_window(
        self, window: list[PendingOp], state=None
    ) -> dict[tuple[int, int], PairKind]:
        """All pairwise kinds over a window (``i < j`` indices) — the
        quadratic oracle ``ConflictGraph.build``'s indexed edges are
        validated against; not on any hot path.  One footprint pass of its
        own, then exactly :meth:`classify` per index pair."""
        footprints = [self.footprint(op) for op in window]
        check = self.validate and state is not None
        kinds: dict[tuple[int, int], PairKind] = {}
        for i, first in enumerate(footprints):
            for j in range(i + 1, len(window)):
                kinds[(i, j)] = kind = self._pair_kind(first, footprints[j])
                if check:
                    self._check_against_oracle(
                        kind, window[i], window[j], state
                    )
        return kinds

    # ------------------------------------------------------------------

    def _check_against_oracle(
        self, kind: PairKind, first: PendingOp, second: PendingOp, state
    ) -> None:
        if state != self._validation_state:
            # The oracle memoizes on the full state; entries for previous
            # window states are dead weight (a long engine run visits a
            # fresh state every round), so keep only the current window's.
            self.oracle.clear()
            self._validation_state = state
        semantic = self.oracle.kind(
            state,
            Invocation(first.pid, first.operation),
            Invocation(second.pid, second.operation),
        )
        self.stats.validated += 1
        ok = True
        if kind is PairKind.COMMUTE:
            ok = semantic is PairKind.COMMUTE
        elif kind is PairKind.READ_ONLY:
            ok = semantic in (PairKind.READ_ONLY, PairKind.COMMUTE)
        else:
            self.stats.checked_conflicts += 1
            if semantic is PairKind.CONFLICT:
                self.stats.confirmed_conflicts += 1
        if not ok:
            raise ClassifierValidationError(
                f"static fast path claims {kind.value} but the semantic "
                f"oracle says {semantic.value} for {first} / {second}"
            )
