"""Mechanical commutativity / read-only analysis (Theorem 3's case analysis).

Theorem 3's impossibility proof rests on two observations about decision
steps from a critical state:

* **commuting steps** — if the two pending operations commute, the states
  reached by executing them in either order are identical, contradicting
  their different valences;
* **read-only steps** — if one operation does not change the object's state,
  the other process cannot distinguish the two orders.

This module decides both properties *semantically*, by executing the
sequential specification (:func:`analyze_pair`), and labels each pair with
the proof's case split (Cases 1–4 and the commuting/read-only base cases
illustrated in Figure 1; :func:`erc20_case_label`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

from repro.objects.footprint import static_pair_kind
from repro.spec.object_type import SequentialObjectType
from repro.spec.operation import Operation


class PairKind(Enum):
    """Classification of an ordered pair of invocations at a state."""

    #: Both orders yield identical states and responses.
    COMMUTE = "commute"
    #: At least one of the two invocations leaves the state unchanged.
    READ_ONLY = "read-only"
    #: Neither commuting nor read-only: a genuine synchronization conflict —
    #: the only kind of pair that can be a pair of decision steps (Thm 3).
    CONFLICT = "conflict"


@dataclass(frozen=True, slots=True)
class Invocation:
    """A (process, operation) pair for analysis purposes."""

    pid: int
    operation: Operation

    def __str__(self) -> str:
        return f"p{self.pid}.{self.operation}"


@dataclass(frozen=True, slots=True)
class PairAnalysis:
    """Outcome of analyzing one pair of invocations at a state."""

    first: Invocation
    second: Invocation
    kind: PairKind
    #: Final states under first-then-second and second-then-first orders.
    state_fs: Any
    state_sf: Any
    #: Responses (r_first, r_second) under each order.
    responses_fs: tuple[Any, Any]
    responses_sf: tuple[Any, Any]


def analyze_pair(
    object_type: SequentialObjectType,
    state: Any,
    first: Invocation,
    second: Invocation,
) -> PairAnalysis:
    """Full both-orders analysis of a pair of invocations at ``state``."""
    # Order: first then second.
    mid_fs, r1_fs = object_type.apply(state, first.pid, first.operation)
    end_fs, r2_fs = object_type.apply(mid_fs, second.pid, second.operation)
    # Order: second then first.
    mid_sf, r2_sf = object_type.apply(state, second.pid, second.operation)
    end_sf, r1_sf = object_type.apply(mid_sf, first.pid, first.operation)

    same_states = end_fs == end_sf
    same_responses = (r1_fs == r1_sf) and (r2_fs == r2_sf)
    if same_states and same_responses:
        kind = PairKind.COMMUTE
    elif object_type.is_read_only(state, first.pid, first.operation) or (
        object_type.is_read_only(state, second.pid, second.operation)
    ):
        kind = PairKind.READ_ONLY
    else:
        kind = PairKind.CONFLICT
    return PairAnalysis(
        first=first,
        second=second,
        kind=kind,
        state_fs=end_fs,
        state_sf=end_sf,
        responses_fs=(r1_fs, r2_fs),
        responses_sf=(r1_sf, r2_sf),
    )


class CachedPairAnalyzer:
    """Memoizing wrapper around :func:`analyze_pair`.

    States are immutable and hashable by construction (see
    :mod:`repro.spec.object_type`), so a full pair analysis — four ``apply``
    calls — can be memoized on ``(state, first, second)``.
    :func:`audit_static_kinds` uses it as the semantic oracle the engine's
    static footprint rule is held to; a mempool window repeats invocation
    pairs at one state, which is where the cache pays off.
    """

    def __init__(self, object_type: SequentialObjectType) -> None:
        self.object_type = object_type
        self._cache: dict[tuple[Any, Invocation, Invocation], PairAnalysis] = {}
        self.hits = 0
        self.misses = 0

    def analyze(
        self, state: Any, first: Invocation, second: Invocation
    ) -> PairAnalysis:
        key = (state, first, second)
        found = self._cache.get(key)
        if found is None:
            self.misses += 1
            found = analyze_pair(self.object_type, state, first, second)
            self._cache[key] = found
        else:
            self.hits += 1
        return found

    def kind(
        self, state: Any, first: Invocation, second: Invocation
    ) -> PairKind:
        # The kind is symmetric in the pair; reuse a mirrored entry if one
        # is already cached.
        mirrored = self._cache.get((state, second, first))
        if mirrored is not None:
            self.hits += 1
            return mirrored.kind
        return self.analyze(state, first, second).kind

    def clear(self) -> None:
        self._cache.clear()


#: What the oracle may say of a pair the static rule calls COMMUTE or
#: READ_ONLY; a static CONFLICT is the conservative fallback and grants
#: nothing, so any semantic kind is sound for it.
_SOUND = {
    "commute": {PairKind.COMMUTE},
    "read-only": {PairKind.READ_ONLY, PairKind.COMMUTE},
}


@dataclass(frozen=True, slots=True)
class StaticKindAudit:
    """What :func:`audit_static_kinds` found over one workload."""

    #: Pairs checked: ``n_w(n_w-1)/2`` summed over the windows.
    pairs: int
    #: Static-CONFLICT pairs, and those the oracle confirmed as CONFLICT.
    checked_conflicts: int
    confirmed_conflicts: int
    #: ``(first, second, static kind, semantic kind)`` of every pair whose
    #: static verdict claims more than the oracle grants; empty = sound.
    violations: list[tuple[Invocation, Invocation, PairKind, PairKind]]

    @property
    def conflict_precision(self) -> float:
        """Fraction of static conflicts that were real conflicts."""
        if not self.checked_conflicts:
            return 1.0
        return self.confirmed_conflicts / self.checked_conflicts


def audit_static_kinds(
    object_type: SequentialObjectType, items: Iterable, window: int
) -> StaticKindAudit:
    """Check the static footprint rule
    (:func:`repro.objects.footprint.static_pair_kind`) against this
    module's oracle over a workload, the way an executor windows it.

    ``items`` (anything with ``pid`` and ``operation``) are cut into
    windows of ``window`` in submission order.  Every pair of a window is
    analyzed at the window's prefix state — the sequential spec's state
    after every earlier window — and must keep the soundness contract:

    * static COMMUTE   ⇒ oracle COMMUTE;
    * static READ_ONLY ⇒ oracle READ_ONLY or COMMUTE;
    * static CONFLICT  ⇒ anything; the audit counts how often the oracle
      confirms it (the rule's precision).
    """
    invocations = [Invocation(item.pid, item.operation) for item in items]
    oracle = CachedPairAnalyzer(object_type)
    state = object_type.initial_state()
    pairs = checked = confirmed = 0
    violations = []
    for start in range(0, len(invocations), window):
        chunk = invocations[start : start + window]
        footprints = [
            object_type.footprint(inv.pid, inv.operation) for inv in chunk
        ]
        # The cache keys on the state: earlier windows' entries are dead.
        oracle.clear()
        for i, first in enumerate(chunk):
            for j in range(i + 1, len(chunk)):
                static = static_pair_kind(footprints[i], footprints[j])
                semantic = oracle.kind(state, first, chunk[j])
                pairs += 1
                if static == "conflict":
                    checked += 1
                    confirmed += semantic is PairKind.CONFLICT
                elif semantic not in _SOUND[static]:
                    violations.append(
                        (first, chunk[j], PairKind(static), semantic)
                    )
        state, _ = object_type.run(
            ((inv.pid, inv.operation) for inv in chunk), state
        )
    return StaticKindAudit(pairs, checked, confirmed, violations)


def erc20_case_label(first: Invocation, second: Invocation) -> str:
    """Label a pair of ERC20 invocations with the paper's Theorem 3 case.

    Cases: (1) transfer/transfer, (2) transferFrom/transferFrom,
    (3) transfer vs transferFrom, (4) approve vs transferFrom.  Pairs with a
    read-only method, approve/approve, and approve/transfer are the base
    cases handled before the enumeration.
    """
    read_only = {"balanceOf", "allowance", "totalSupply"}
    names = {first.operation.name, second.operation.name}
    if names & read_only:
        return "read-only method"
    if names == {"transfer"}:
        return "Case 1: transfer/transfer"
    if names == {"transferFrom"}:
        return "Case 2: transferFrom/transferFrom"
    if names == {"transfer", "transferFrom"}:
        return "Case 3: transfer/transferFrom"
    if names == {"approve", "transferFrom"}:
        return "Case 4: approve/transferFrom"
    if names == {"approve"} or names == {"approve", "transfer"}:
        return "commuting base case (approve/approve or approve/transfer)"
    return "other"
