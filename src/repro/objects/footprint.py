"""Static read/write footprints of token operations.

The paper's trichotomy (Theorem 3's case analysis) classifies a pair of
operations *semantically*, by running the sequential specification both ways
(:mod:`repro.analysis.commutativity`).  That oracle is exact but costs four
``apply`` calls per pair per state.  The execution engine
(:mod:`repro.engine`) needs the same judgment over every pair in a mempool
window on every round, so each object type exposes a *static* footprint: the
set of abstract state locations an invocation may observe or write,
independent of the current state.

A footprint distinguishes three access kinds:

* ``observes`` — locations whose current value can influence the response,
  a guard, or a written value (e.g. ``transfer`` observes the source
  balance);
* ``adds`` — locations updated by a commutative delta (balance increments
  and decrements, allowance decrements): two deltas to the same cell
  commute;
* ``sets`` — locations overwritten with a state-independent value
  (``approve``'s absolute assignment): order matters against any other
  write.

Token transfers conserve the total supply, so ``totalSupply`` observes the
dedicated :data:`SUPPLY` location that no transfer writes — the engine can
run supply queries in parallel with arbitrary transfer traffic.

:func:`static_pair_kind` folds two footprints into the paper's trichotomy.
The verdicts are *sound under-approximations* of the semantic oracle (see
``tests/engine/test_classifier.py`` for the machine-checked contract):

* static ``"commute"``  ⇒ the pair commutes at **every** state;
* static ``"read-only"`` ⇒ one op never changes state, so the oracle says
  read-only (or commute) at every state;
* static ``"conflict"`` is the conservative fallback — at a particular
  state the oracle may still find the pair commuting (e.g. two transfers
  from a richly funded account).

The string values deliberately match ``PairKind`` in
:mod:`repro.analysis.commutativity` (which imports :mod:`repro.objects` and
therefore cannot be imported from here).

Every op of every window passes through this module, so its questions —
the pair rule, the anchor, the contention test — are answered on the three
frozensets as they stand, without building a derived set.  An empty kind is
*one shared object*: every footprint built here, by the helpers or by an
object type, holds the same empty frozenset for each kind it does not use.
That object must never be mutated, and code outside the tests must never
tell footprints apart by the identity of their kinds — only by value.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence

from repro._records import frozen_record

#: Abstract location: a hashable tuple such as ``("bal", 3)``,
#: ``("allow", 1, 2)``, ``("nft", 7)`` or :data:`SUPPLY`.
Location = tuple

#: Pseudo-location read by supply queries; transfers conserve it.
SUPPLY: Location = ("supply",)


def bal(account: int) -> Location:
    """The balance cell ``β(a)``."""
    return ("bal", account)


def allow(account: int, spender: int) -> Location:
    """The allowance cell ``α(a, p)``."""
    return ("allow", account, spender)


#: The one empty kind (see the module docstring).
_EMPTY: frozenset = frozenset()


@frozen_record
class OpFootprint:
    """Static may-access summary of one invocation.

    An empty footprint (no observes, no writes) describes an operation whose
    response is a constant and whose execution never changes the state —
    e.g. a zero-value ``transfer`` — which commutes with everything.
    """

    observes: frozenset = _EMPTY
    adds: frozenset = _EMPTY
    sets: frozenset = _EMPTY

    @property
    def is_read_only(self) -> bool:
        """True when the invocation can never change the state."""
        return not self.adds and not self.sets

    @property
    def contended(self) -> frozenset:
        """Locations this invocation *synchronizes on*: guarded decrements
        (cells both observed and delta-written — a transfer's source
        balance, a transferFrom's allowance) plus absolute writes.

        This is the footprint-level image of the paper's per-account
        synchronization groups: two operations of distinct processes need
        consensus exactly when their contended sets intersect (two enabled
        spenders debiting one balance, approve racing transferFrom on an
        allowance cell, two transfers of one NFT).  Blind credits
        (``adds`` that are never observed) are not contended — incoming
        transfers commute CRDT-style and at worst *enable* a guard, which
        an order (broadcast causality / the engine's barrier) resolves
        without consensus; that is why single-owner traffic is the
        consensus-number-1 regime."""
        return (self.adds & self.observes) | self.sets

    def contends_with(self, other: "OpFootprint") -> bool:
        """True when the two :attr:`contended` sets intersect — the
        engine's consensus test, asked per conflicting pair and therefore
        answered without building either set."""
        if not self.sets.isdisjoint(other.sets):
            return True
        mine, theirs = self.observes, other.observes
        for location in self.adds:
            if location in mine and (
                location in other.sets
                or (location in other.adds and location in theirs)
            ):
                return True
        if self.sets:
            for location in other.adds:
                if location in theirs and location in self.sets:
                    return True
        return False


def accounts_in(locations) -> list[int]:
    """Sorted account indices anchoring the given locations.

    The convention — shared by the sync planner, the spender bounds
    (:mod:`repro.sync`) and :func:`anchor_account` — is that a location's
    *first* index after its tag names the anchoring account
    (``("bal", a)``, ``("allow", a, spender)``, ``("nft", t)``).
    """
    found = {
        part
        for location in locations
        for part in location[1:2]
        if isinstance(part, int)
    }
    return sorted(found)


def anchor_account(fp: "OpFootprint | None", default: int) -> int:
    """The account an invocation *synchronizes on* — the cluster router's
    owner-extraction rule.

    Preference order: the smallest contended account (the cell the paper's
    synchronization groups form around), else the smallest written account,
    else the smallest observed one, else ``default`` (conventionally the
    calling process).  Anchoring on the contended cell keeps every
    operation of one synchronization group on that account's owner — the
    placement under which owner-local traffic needs no coordination at all.
    Each kind is walked at most once.
    """
    if fp is None:
        return default
    observes = fp.observes
    contended = written = None
    for location in fp.adds:
        if len(location) > 1:
            account = location[1]
            if location in observes:
                if isinstance(account, int) and (
                    contended is None or account < contended
                ):
                    contended = account
            # An observed add naming an account makes ``written`` moot;
            # until one does, track the smallest unobserved one.
            elif (
                contended is None
                and isinstance(account, int)
                and (written is None or account < written)
            ):
                written = account
    if fp.sets:
        contended = _smallest_account(fp.sets, contended)
    if contended is not None:
        return contended
    # No contended account: neither a set cell nor an observed add names
    # one, so the smallest written account is ``written``.
    if written is not None:
        return written
    account = _smallest_account(observes)
    return default if account is None else account


def _smallest_account(locations, best=None) -> int | None:
    """``best`` lowered to the smallest account anchoring one of
    ``locations`` (the convention of :func:`accounts_in`).  Builds no set
    and sorts nothing."""
    for location in locations:
        if len(location) > 1:
            account = location[1]
            if isinstance(account, int) and (best is None or account < best):
                best = account
    return best


#: Footprint of a pure no-op (constant response, state never changes).
EMPTY_FOOTPRINT = OpFootprint()


def footprint(observes=(), adds=(), sets=()) -> OpFootprint:
    """Convenience constructor from iterables."""
    return OpFootprint(
        frozenset(observes) or _EMPTY,
        frozenset(adds) or _EMPTY,
        frozenset(sets) or _EMPTY,
    )


def union_footprint(footprints) -> OpFootprint | None:
    """Kind-aware union of an iterable of ``OpFootprint | None`` — one
    unit's may-access set; ``None`` (unknown) once any member is.

    :func:`static_pair_kind` of two unions is the batch-level test the
    cluster router's cross-round gate needs: it says ``"commute"`` only
    if every cross pair of members does: each of the rule's conditions
    (a write meeting an observe, a shared written cell that either side
    ``sets``) is monotone in the three sets, and a union only grows them.
    A cell one member sets and another adds stays in both kinds.
    """
    observes: set = set()
    adds: set = set()
    sets: set = set()
    for fp in footprints:
        if fp is None:
            return None
        observes |= fp.observes
        adds |= fp.adds
        sets |= fp.sets
    return footprint(observes, adds, sets)


def static_pair_kind(
    first: OpFootprint | None, second: OpFootprint | None
) -> str:
    """Classify a pair of footprints into the paper's trichotomy.

    Returns one of ``"commute"``, ``"read-only"``, ``"conflict"`` (the
    values of ``PairKind``).  ``None`` footprints (unknown operations)
    classify conservatively as ``"conflict"``.
    """
    if first is None or second is None:
        return "conflict"
    # An op whose writes stay clear of everything the other observes or
    # writes (shared cells allowed only when neither side overwrites them:
    # both access them as commutative deltas) can be reordered freely: the
    # other op takes the same branch, writes the same values, and returns
    # the same response either way.  The test is on ``sets`` because a
    # union of several ops may hold one cell under both kinds, and the
    # absolute write is the one that needs an order.  Spelled as the seven
    # disjointness tests the rule reduces to, so no union is built.
    o1, a1, s1 = first.observes, first.adds, first.sets
    o2, a2, s2 = second.observes, second.adds, second.sets
    if (
        a1.isdisjoint(o2)
        and s1.isdisjoint(o2)
        and a2.isdisjoint(o1)
        and s2.isdisjoint(o1)
        and s1.isdisjoint(a2)
        and s1.isdisjoint(s2)
        and s2.isdisjoint(a1)
    ):
        return "commute"
    if first.is_read_only or second.is_read_only:
        return "read-only"
    return "conflict"


def conflict_candidates(
    footprints: Sequence[OpFootprint | None],
) -> dict[int, set[int]]:
    """Every pair of a window that :func:`static_pair_kind` does not call
    ``"commute"``, found by hashing on the location instead of comparing
    every pair: ``later[i]`` holds the indices ``j > i`` paired with ``i``,
    and only an ``i`` with such a partner has an entry.

    :func:`static_pair_kind` leaves ``"commute"`` only when some location is
    written by one footprint and observed by the other, or written by both
    with at least one absolute ``sets`` — so bucketing the window's writes
    per location, then the observers of the written cells only, and
    crossing, within each bucket, writers with observers and setters with
    writers reaches every such pair (a ``None`` footprint pairs with the
    whole window) and no other.  A window that writes nothing and knows
    every footprint returns after the first pass.  Self-pairs are dropped
    and pairs sharing several locations collapse in the sets.  A
    *self-only* cell — its one adder is its one observer, as a transfer's
    own source balance is when no other op of the window touches it —
    could only emit the self-pair, so it is not crossed at all.  The
    cost is linear in the footprints plus the pairs emitted — a window
    where every op is guarded on one balance emits them all.
    """
    adders: dict[Location, list[int]] = defaultdict(list)
    setters: dict[Location, list[int]] = defaultdict(list)
    unknown: list[int] = []
    for i, fp in enumerate(footprints):
        if fp is None:
            unknown.append(i)
            continue
        for loc in fp.adds:
            adders[loc].append(i)
        for loc in fp.sets:
            setters[loc].append(i)
    later: dict[int, set[int]] = {}
    if not (adders or setters or unknown):
        return later

    def cross(xs: Sequence[int], ys: Sequence[int]) -> None:
        # Buckets fill in window order, so each ascends: the partners of
        # an op after it in the window are a suffix of the other bucket.
        for mine, theirs in ((xs, ys), (ys, xs)):
            for x in mine:
                if tail := theirs[bisect_right(theirs, x) :]:
                    if x in later:
                        later[x].update(tail)
                    else:
                        later[x] = set(tail)

    if adders or setters:
        written = adders.keys() | setters.keys() if setters else adders
        observers: dict[Location, list[int]] = defaultdict(list)
        for i, fp in enumerate(footprints):
            if fp is not None:
                for loc in fp.observes:
                    if loc in written:
                        observers[loc].append(i)
        for loc, deltas in adders.items():
            watchers = observers.get(loc)
            if watchers is not None and (len(deltas) > 1 or watchers != deltas):
                cross(deltas, watchers)
        for loc, absolute in setters.items():
            for bucket in (observers, adders, setters):
                if loc in bucket:
                    cross(absolute, bucket[loc])
    if unknown:
        cross(unknown, range(len(footprints)))
    return later
