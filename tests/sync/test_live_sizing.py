"""Team sizing reads the engine's live batch, not a frozen copy.

``PipelinedExecutor.step`` sizes a window's teams before it applies the
window, so the batch holds exactly the window's prefix state then; the
ERC20 batch answers the two reads its ``spender_bound`` makes.  Sizing there
must give the teams a frozen ``TokenState`` at the same instant gives,
and a run freezes its batch once, to publish the final state.
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType, _TokenBatch
from repro.spec.operation import op
from repro.sync import component_team, split_groups
from repro.workloads import APPROVAL_HEAVY_MIX, TokenWorkloadGenerator


def approval_engine(n: int = 16, threshold: int = 4):
    token = ERC20TokenType(n, total_supply=20 * n)
    engine = PipelinedExecutor(
        token, EngineConfig(num_lanes=4, window=16, team_threshold=threshold)
    )
    items = TokenWorkloadGenerator(
        n, seed=31, mix=APPROVAL_HEAVY_MIX, spender_pool=4
    ).generate(400)
    return token, engine, items


def test_teams_sized_at_the_live_batch_equal_the_frozen_states():
    token, engine, items = approval_engine()
    order_round = engine.sync.order_round
    compared: list[frozenset[int] | None] = []

    def checked(plan, state, object_type):
        assert state is engine._batch
        frozen = engine._batch.state()
        for group in plan.contended_groups:
            for split in split_groups(group, plan.footprints):
                ops = [plan.ops[i] for i in split]
                fps = [plan.footprints[i] for i in split]
                team = component_team(ops, fps, state, token)
                assert team == component_team(ops, fps, frozen, token)
                compared.append(team)
        return order_round(plan, state, object_type)

    engine.sync.order_round = checked
    engine.run_workload(items)
    teams = [team for team in compared if team is not None]
    assert teams and any(len(team) > 1 for team in teams)


def test_an_untraced_run_freezes_the_batch_once(monkeypatch):
    token, engine, items = approval_engine()
    calls = []
    state = _TokenBatch.state

    def counted(batch):
        calls.append(batch)
        return state(batch)

    monkeypatch.setattr(_TokenBatch, "state", counted)
    _, _, stats = engine.run_workload(items)
    assert stats.team_ops > 0
    assert len(calls) == 1


def test_the_batch_answers_the_spender_reads_of_its_frozen_state():
    token = ERC20TokenType(4, total_supply=40)
    batch = token.batch(token.initial_state())
    batch.apply(0, op("approve", 2, 5))
    batch.apply(1, op("approve", 3, 1))
    frozen = batch.state()
    batch.apply(0, op("approve", 1, 7))  # a row written after a freeze
    rows = [dict(batch.allowances_of(account)) for account in range(4)]
    assert batch.num_accounts == 4
    live = batch.state()
    assert rows == [live.allowances_of(account) for account in range(4)]
    assert rows == [{1: 7, 2: 5}, {3: 1}, {}, {}]
    assert live.allowances != frozen.allowances
    assert [token.spender_bound(batch, a) for a in range(4)] == [
        token.spender_bound(live, a) for a in range(4)
    ]
