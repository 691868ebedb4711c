"""A test-side tap on the plans the router ships.

Every ``cl_run`` carries a dispatch unit's ops and its plan: the
component's precedence DAG over positions in ``ops``, or ``None`` for
ops that share no edge.  The node executes that plan and classifies
nothing, so whether the plan is the right one is checked here, beside the
network: :func:`tap_shipped_plans` re-derives each shipped plan from the
unit's ops alone with the reference (:func:`tests.reference.plan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from tests import reference


@dataclass
class PlanTap:
    """What the tap saw, by ``(round, unit)`` key."""

    #: Every ``cl_run`` whose plan was re-derived.
    checked: list[tuple[int, int]] = field(default_factory=list)
    #: The units whose shipped plan differs from the one their ops derive.
    differing: list[tuple[int, int]] = field(default_factory=list)


def tap_shipped_plans(cluster) -> PlanTap:
    """Wrap ``cluster.network.send`` so that every ``cl_run``'s ``dag`` is
    compared with the reference plan of its ops: a DAG must be the ops'
    one component DAG, and ``None`` must mean every op is a singleton.  A
    wrapper installed after the tap runs before it, so the tap sees what
    that wrapper puts on the wire."""
    tap = PlanTap()
    send = cluster.network.send

    def tapped(src, dst, type, payload=None):
        if type == "cl_run":
            ops, dag = payload["ops"], payload["dag"]
            expected = reference.plan(cluster.object_type, ops)
            if dag is None:
                shipped = ([], list(range(len(ops))))
            else:
                shipped = ([dag], [])
            key = (payload["round"], payload["unit"])
            tap.checked.append(key)
            if (expected.dags, expected.singletons) != shipped:
                tap.differing.append(key)
        send(src, dst, type, payload)

    cluster.network.send = tapped
    return tap
