"""A test-side tap on the sync layer's per-round results.

A round's synchronization bill is the one
:class:`~repro.sync.escalation.SyncRoundResult` the sync layer returns;
the stats aggregates fold it and the per-round records do not keep it.
:func:`tap_sync_results` collects those results for a test, beside the
run.
"""

from __future__ import annotations

from repro.sync.escalation import SyncRoundResult, TieredEscalator


def tap_sync_results(sync: TieredEscalator) -> list[SyncRoundResult]:
    """Wrap ``sync.order_assignments`` — the one call every round with a
    contended component makes, the engine's ``order_round`` and the
    router's ``route_window`` alike — and return the list its results
    are appended to, one per such round in round order.  A round with no
    contended component pays nothing and appends nothing."""
    results: list[SyncRoundResult] = []
    order_assignments = sync.order_assignments

    def tapped(assignments):
        result = order_assignments(assignments)
        results.append(result)
        return result

    sync.order_assignments = tapped
    return results
