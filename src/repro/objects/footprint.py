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

Its strings are the values of :class:`PairKind`, the enum the
engine and the semantic oracle of :mod:`repro.analysis.commutativity`
both label pairs with.

Every op of every window passes through this module, so its questions —
the pair rule, the anchor, the contention test — are answered on the three
frozensets as they stand, without building a derived set.  A window's
non-commuting pairs are found here too, without asking the pair rule of
every pair: :func:`window_preds` scans the window once, each op looking up
its earlier partners by the cells it touches.  An empty kind is
*one shared object*: every footprint built here, by the helpers or by an
object type, holds the same empty frozenset for each kind it does not use.
That object must never be mutated, and code outside the tests must never
tell footprints apart by the identity of their kinds — only by value.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

from repro._records import record

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


@record(frozen=True, slots=True)
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
        if not (self.sets or other.sets) and mine.isdisjoint(theirs):
            return False  # no cell is a guarded decrement on both sides
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

    The convention — shared by the sync layer's group split and team
    sizing (:mod:`repro.sync`) and :func:`anchor_account` — is that a
    location's *first* index after its tag names the anchoring account
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


class PairKind(Enum):
    """Classification of an ordered pair of invocations at a state."""

    #: Both orders yield identical states and responses.
    COMMUTE = "commute"
    #: At least one of the two invocations leaves the state unchanged.
    READ_ONLY = "read-only"
    #: Neither commuting nor read-only: a genuine synchronization conflict —
    #: the only kind of pair that can be a pair of decision steps (Thm 3).
    CONFLICT = "conflict"


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


def window_preds(footprints: Sequence[OpFootprint | None]) -> list:
    """Every pair of a window that :func:`static_pair_kind` does not call
    ``"commute"``, as each op's earlier partners: ``preds[j]`` lists the
    ``i < j`` paired with ``j``, ascending (``()`` when there is none).

    One ascending scan by location, not a comparison of every pair: op
    ``j`` looks up its partners in per-location registers of the earlier
    ops, then registers itself, so it is never its own partner, and a
    pair sharing several cells is listed once.  That is exact because
    (1) the rule leaves ``"commute"`` only when a cell one footprint
    writes the other observes, or both write it and one ``sets`` it — so
    ``j``'s partners are the earlier writers of what it observes, the
    earlier observers and setters of what it adds, and every earlier op
    touching what it sets; (2) on exactly those pairs the rule's verdict
    is ``"read-only"`` when one side writes nothing, else ``"conflict"``;
    (3) an unknown (``None``) footprint pairs with the whole window.  Only
    cells the window writes are registered for their observers, so an op
    reading nothing written costs one test.  The cost is linear in the
    footprints plus the pairs listed.
    """
    written: set = set()
    for fp in footprints:
        if fp is not None and (fp.adds or fp.sets):
            written.update(fp.adds, fp.sets)
    # Per written location, the earlier ops observing / adding / setting
    # it, ascending; and every earlier unknown footprint.
    readers: dict[Location, list[int]] = {}
    adders: dict[Location, list[int]] = {}
    setters: dict[Location, list[int]] = {}
    unknown: list[int] = []
    preds: list = [()] * len(footprints)
    for j, fp in enumerate(footprints):
        if fp is None:
            preds[j] = list(range(j))
            unknown.append(j)
            continue
        observes, adds, sets = fp.observes, fp.adds, fp.sets
        if not (adds or sets or unknown) and written.isdisjoint(observes):
            continue
        found = [unknown] if unknown else []
        for loc in observes:
            if loc in adders:
                found.append(adders[loc])
            if setters and loc in setters:
                found.append(setters[loc])
        for loc in adds:
            if loc in readers:
                found.append(readers[loc])
            if setters and loc in setters:
                found.append(setters[loc])
        for loc in sets:
            for register in (readers, adders, setters):
                if loc in register:
                    found.append(register[loc])
        if len(found) > 1:
            preds[j] = sorted(set().union(*found))
        elif found:
            preds[j] = found[0][:]
        for loc in observes:
            if loc in written:
                if loc in readers:
                    readers[loc].append(j)
                else:
                    readers[loc] = [j]
        for loc in adds:
            if loc in adders:
                adders[loc].append(j)
            else:
                adders[loc] = [j]
        for loc in sets:
            if loc in setters:
                setters[loc].append(j)
            else:
                setters[loc] = [j]
    return preds
