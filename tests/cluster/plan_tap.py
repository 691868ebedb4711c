"""A test-side tap on the plans the router ships.

Every ``cl_run`` carries a dispatch unit's ops and its plan: the
component's precedence DAG over positions in ``ops``, or ``None`` for
ops that share no edge.  The node executes that plan and classifies
nothing, so whether the plan is the right one is checked here, beside the
network: :func:`tap_shipped_plans` re-derives each shipped plan from the
unit's ops alone with ``plan_window``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine import OpClassifier, plan_window
from tests.engine.graph_views import plan_dags


@dataclass
class PlanTap:
    """What the tap saw, by ``(round, unit)`` key."""

    #: Every ``cl_run`` whose plan was re-derived.
    checked: list[tuple[int, int]] = field(default_factory=list)
    #: The units whose shipped plan differs from the one their ops derive.
    differing: list[tuple[int, int]] = field(default_factory=list)


def tap_shipped_plans(cluster) -> PlanTap:
    """Wrap ``cluster.network.send`` so that every ``cl_run``'s ``dag`` /
    singletons are compared with ``plan_window(OpClassifier(token), ops)``:
    a DAG must be the ops' one component DAG, and ``None`` must mean every
    op is a singleton.  A wrapper installed after the tap runs before it,
    so the tap sees what that wrapper puts on the wire."""
    tap = PlanTap()
    classifier = OpClassifier(cluster.object_type)
    send = cluster.network.send

    def tapped(src, dst, type, payload=None):
        if type == "cl_run":
            ops, dag = payload["ops"], payload["dag"]
            plan = plan_window(classifier, ops)
            if dag is None:
                shipped = ([], list(range(len(ops))))
            else:
                shipped = ([dag], [])
            key = (payload["round"], payload["unit"])
            tap.checked.append(key)
            if (plan_dags(plan), plan.singletons) != shipped:
                tap.differing.append(key)
        send(src, dst, type, payload)

    cluster.network.send = tapped
    return tap
