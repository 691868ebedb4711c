"""The window plan's invariants, on random ERC20 windows.

:func:`~repro.engine.rounds.plan_window` is the one place a window is
split — for the engine and the router — so what every caller assumes of
its result is checked here once:

* ``chains`` and ``singletons`` partition the window's indices;
* ``dags[k]`` is the DAG of ``chains[k]``, node for node;
* each contended group is an ordered subset of exactly one chain, and the
  groups are sorted by their first index;
* the flattened groups are exactly the endpoints of the CONFLICT edges
  whose pair ``needs_consensus``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import PairKind
from repro.engine import ConflictGraph, OpClassifier, WindowPlan, plan_window
from repro.engine.mempool import PendingOp
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import op
from tests.engine.test_classifier import N, erc20_invocation

TOKEN = ERC20TokenType(N, total_supply=20, with_extensions=True)


def _window(invocations) -> list[PendingOp]:
    return [
        PendingOp(seq, pid, operation)
        for seq, (pid, operation) in enumerate(invocations)
    ]


@settings(max_examples=200, deadline=None)
@given(invocations=st.lists(erc20_invocation(), max_size=24))
def test_plan_invariants(invocations):
    ops = _window(invocations)
    classifier = OpClassifier(TOKEN)
    plan = plan_window(classifier, ops)
    assert isinstance(plan, WindowPlan)
    assert plan.ops == ops
    assert plan.footprints == [classifier.footprint(pending) for pending in ops]

    # Chains and singletons partition the window.
    covered = [i for chain in plan.chains for i in chain] + plan.singletons
    assert sorted(covered) == list(range(len(ops)))
    assert all(len(chain) > 1 for chain in plan.chains)
    assert all(chain == sorted(chain) for chain in plan.chains)
    assert plan.chained_ops == len(ops) - len(plan.singletons)

    # The DAGs are aligned with the chains, over positions in them.
    assert len(plan.dags) == len(plan.chains)
    for dag, chain in zip(plan.dags, plan.chains):
        assert dag.size == len(chain)

    # Each group is an ordered subset of exactly one chain.
    for group in plan.contended_groups:
        assert group and group == sorted(group)
        owners = [chain for chain in plan.chains if set(group) <= set(chain)]
        assert len(owners) == 1
        others = [chain for chain in plan.chains if chain is not owners[0]]
        assert not any(set(group) & set(chain) for chain in others)
    firsts = [group[0] for group in plan.contended_groups]
    assert firsts == sorted(firsts)

    # The groups hold exactly the endpoints of contended CONFLICT edges.
    graph = ConflictGraph.build(OpClassifier(TOKEN), ops)
    endpoints = {
        i
        for (a, b), kind in graph.edges.items()
        if kind is PairKind.CONFLICT
        and classifier.needs_consensus(ops[a], ops[b])
        for i in (a, b)
    }
    assert sorted(plan.escalated_idx) == sorted(endpoints)
    assert len(plan.escalated_idx) == len(endpoints)


def test_an_empty_window_plans_to_nothing():
    plan = plan_window(OpClassifier(TOKEN), [])
    assert plan.escalated_idx == []
    assert plan.chained_ops == 0
    assert (plan.chains, plan.singletons, plan.dags) == ([], [], [])


def test_plan_window_finds_the_graph_through_the_class(monkeypatch):
    """The wall harness wraps ``build``, ``components`` and
    ``component_dags`` on the class: ``plan_window`` must look each one up
    there at call time, once per window."""
    calls = []
    for name in ("components", "component_dags"):
        original = getattr(ConflictGraph, name)

        def counted(self, _original=original, _name=name):
            calls.append(_name)
            return _original(self)

        monkeypatch.setattr(ConflictGraph, name, counted)
    build = ConflictGraph.build

    def counted_build(*args, **kwargs):
        calls.append("build")
        return build(*args, **kwargs)

    monkeypatch.setattr(ConflictGraph, "build", counted_build)
    ops = _window([(0, op("transfer", 1, 1)), (1, op("transfer", 2, 1))])
    plan_window(OpClassifier(TOKEN), ops)
    assert calls == ["build", "components", "component_dags"]
