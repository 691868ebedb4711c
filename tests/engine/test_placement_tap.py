"""The engine placement monitor fires on a tampered window.

Every suite that runs :func:`~tests.engine.placement_tap.tap_placements`
asserts it flagged nothing — which a monitor that checked nothing would
pass too.  Here a wrapper installed under the tap edits one contended
window's placement: one contended op starts below its sync floor, and
one DAG successor starts with its predecessor.  The tap must name
exactly those two, and nothing else.
"""

from __future__ import annotations

from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.erc20 import ERC20TokenType
from repro.workloads import SPENDER_HEAVY_MIX, TokenWorkloadGenerator
from tests.engine.placement_tap import tap_placements


def _edge_away_from(plan, i):
    """The window indices of one DAG edge that does not touch ``i``."""
    for c, chain in enumerate(plan.chains):
        for k, below in enumerate(plan.chain_dag(c).preds):
            for p in below:
                if i not in (chain[p], chain[k]):
                    return chain[p], chain[k]
    return None


def test_the_engine_tap_flags_a_tampered_window():
    generator = TokenWorkloadGenerator(8, seed=1, mix=SPENDER_HEAVY_MIX)
    engine = PipelinedExecutor(
        ERC20TokenType(8, total_supply=80), EngineConfig(window=16)
    )
    place = engine._place_window_dag
    named: dict = {}

    def tamper(plan, t_classify, op_sync):
        placed, stalls = place(plan, t_classify, op_sync)
        i, done = next(iter(op_sync.items()), (None, None))
        edge = None if named or i is None else _edge_away_from(plan, i)
        if edge is None:
            return placed, stalls
        # Placements are window-aligned ``(start, finish, lane)``.
        placed = list(placed)
        placed[i] = (done - 0.5, *placed[i][1:])
        first, second = edge
        placed[second] = (placed[first][0], *placed[second][1:])
        named["early"] = plan.ops[i].seq
        named["pair"] = tuple(plan.ops[j].seq for j in edge)
        return placed, stalls

    engine._place_window_dag = tamper
    tap = tap_placements(engine)
    engine.run_workload(generator.generate(96))
    assert set(named) == {"early", "pair"}
    assert tap.early == [named["early"]]
    assert tap.reordered == [named["pair"]]
    # That window's sync lane commits at its admission, so the op moved
    # below it starts before its admission too.
    assert tap.floored == [named["early"]]
