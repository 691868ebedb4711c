"""Spender-set bounds: how large a team a contended component needs.

Tier sizing asks, per contended conflict-graph component, "which processes
could possibly be party to this race?"  The paper answers per account:
the enabled spenders ``σ_q(a)`` (Eq. 10), whose maximum cardinality *is*
the token's consensus number at ``q`` (Theorems 2–4).  The planner needs a
**sound upper bound** — a superset of ``σ_q(a)`` — because an undersized
team could omit an enabled spender and the mini-consensus instance would
no longer be implementable from the token at that state.

Two bounds are known to this module, mirroring the object families of
:mod:`repro.analysis.hierarchy`:

* **ERC20** — :func:`repro.analysis.spenders.potential_spenders`: the
  owner plus every process with a positive allowance, read off the
  allowance registers alone (Algorithm 2's approve-guard view).  It always
  contains ``σ_q(a)`` (the zero-balance convention only ever *shrinks* the
  enabled set), which the property suite machine-checks on random states
  (``tests/sync/test_tier_soundness.py``).
* **asset transfer** — the static owner map ``µ(a)``: a ``k``-shared
  account is a ``k``-consensus object exactly (Guerraoui et al. [16]), and
  ``µ`` never changes, so the bound is exact.

Everything else returns ``None`` — "cannot be statically bounded" — and
the planner falls back to the global lane (Tier ∞), which is always safe.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.spenders import potential_spenders
from repro.objects.erc20 import TokenState, _TokenBatch
from repro.objects.footprint import OpFootprint, accounts_in

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.mempool import PendingOp


def spender_bound(object_type, state, account: int) -> frozenset[int] | None:
    """A superset of the enabled spenders of ``account``, or ``None`` when
    no sound bound is known for this object family / state shape.  An
    ERC20 ``state`` is a :class:`TokenState` or the engine's live batch,
    which answers the same two reads."""
    if isinstance(state, (TokenState, _TokenBatch)):
        if not 0 <= account < state.num_accounts:
            return None
        return potential_spenders(state, account)
    owner_map = getattr(object_type, "owner_map", None)
    if owner_map is not None and 0 <= account < len(owner_map):
        return frozenset(owner_map[account])
    return None


def component_team(
    ops: Sequence[PendingOp],
    footprints: Sequence[OpFootprint | None],
    state,
    object_type,
) -> frozenset[int] | None:
    """The synchronization team of one contended component: the union of
    spender bounds over every account the component contends on, plus the
    submitting processes themselves.  ``footprints`` are the ops' static
    footprints, aligned with ``ops``.

    Returns ``None`` — meaning "order this through the global lane" — when
    any footprint is unknown or any contended account lacks a bound.
    """
    team: set[int] = set()
    accounts: set[int] = set()
    for op, fp in zip(ops, footprints, strict=True):
        if fp is None:
            return None
        accounts.update(accounts_in(fp.contended))
        team.add(op.pid)
    for account in sorted(accounts):
        bound = spender_bound(object_type, state, account)
        if bound is None:
            return None
        team.update(bound)
    return frozenset(team)
