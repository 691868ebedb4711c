"""Cross-round pipelined execution: equivalence and stage-machine tests.

Machine-checked guarantees of :mod:`repro.engine.pipeline`:

* **serial equivalence** — for *any* pipeline depth, lane count, window
  size, and workload mix, the pipelined final state and every response
  equal a plain sequential execution in submission order;
* **depth invariance** — all depths produce the same state and responses;
* **stage adapters** — the ``lifecycle`` names the wall harness binds
  still resolve and answer (the plan itself: ``test_window_plan.py``);
* **traced intake** — a paced run stamps each op's submit at the
  admission time it entered the pool, never after its classification;
* **Tier 0** — ops commuting with their whole window land on the
  earliest-free lane at their floor, exactly as the list scheduler places
  zero-in-degree tasks of equal priority;
* **invalid ops** — an op ``apply`` rejects raises from the ``step`` that
  plans its window, with the committed state and responses untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.engine.pipeline as pipeline_module
from repro.analysis.commutativity import audit_static_kinds
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor, dag_list_schedule
from repro.errors import EngineError, InvalidArgumentError
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.erc1155 import ERC1155TokenType
from repro.spec.operation import op
from repro.workloads import (
    APPROVAL_HEAVY_MIX,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    AssetTransferWorkloadGenerator,
    NFTWorkloadGenerator,
    TokenWorkloadGenerator,
    WorkloadMix,
    serial_reference,
)
from tests.engine.placement_tap import tap_placements

DEPTHS = (1, 2, 3, 5)

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}


def pipelined_run(factory, items, depth, lanes=4, window=32, **knobs):
    config = EngineConfig(
        pipeline_depth=depth, num_lanes=lanes, window=window, **knobs
    )
    return PipelinedExecutor(factory(), config).run_workload(items)


class TestDepthValidation:
    def test_depth_must_be_positive(self):
        with pytest.raises(EngineError):
            PipelinedExecutor(
                ERC20TokenType(4, total_supply=40),
                EngineConfig(pipeline_depth=0),
            )


class TestSerialEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("depth", DEPTHS)
    def test_erc20_state_and_responses_match_spec(self, mix_name, depth):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=71, mix=MIXES[mix_name]
        ).generate(300)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = pipelined_run(
            lambda: ERC20TokenType(12, total_supply=240), items, depth
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        depth=st.integers(1, 6),
        lanes=st.sampled_from([1, 2, 4, 8]),
        window=st.integers(4, 48),
    )
    def test_erc20_hypothesis_sweep(self, seed, depth, lanes, window):
        token = ERC20TokenType(8, total_supply=80)
        items = TokenWorkloadGenerator(
            8, seed=seed, mix=SPENDER_HEAVY_MIX, hotspot_fraction=0.4,
            hotspot_accounts=2,
        ).generate(100)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, stats = pipelined_run(
            lambda: ERC20TokenType(8, total_supply=80),
            items,
            depth,
            lanes=lanes,
            window=window,
        )
        assert state == ref_state
        assert responses == ref_responses
        assert 1 <= stats.max_inflight_windows <= depth

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 5))
    def test_erc721_races(self, seed, depth):
        factory = lambda: ERC721TokenType(  # noqa: E731
            4, initial_owners=[0, 1, 2, 3, 0, 1]
        )
        nft = NFTWorkloadGenerator(4, num_tokens=6, seed=seed)
        items = [nft.next_item() for _ in range(60)]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = pipelined_run(factory, items, depth, window=16)
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), depth=st.integers(1, 5))
    def test_asset_transfer_shared_accounts(self, seed, depth):
        owner_map = [{0, 1}, {1}, {2}, {3}, {0, 3}]
        factory = lambda: AssetTransferType(  # noqa: E731
            [20] * 5, owner_map=owner_map, num_processes=4
        )
        transfers = AssetTransferWorkloadGenerator(
            5, 4, seed=seed, max_value=6, read_fraction=0.0
        )
        items = [transfers.next_item() for _ in range(80)]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = pipelined_run(factory, items, depth, window=16)
        assert state == ref_state
        assert responses == ref_responses

    def test_validated_against_oracle(self):
        """Three windows in flight match the spec, and every static verdict
        of those windows is sound at the serial prefix state (the audit)."""
        token = ERC20TokenType(10, total_supply=200)
        items = TokenWorkloadGenerator(
            10, seed=13, mix=SPENDER_HEAVY_MIX
        ).generate(150)
        state, responses, stats = pipelined_run(
            lambda: ERC20TokenType(10, total_supply=200), items, 3
        )
        assert (state, responses) == serial_reference(token, items)
        assert stats.ops_executed == 150
        assert audit_static_kinds(token, items, 32).violations == []


class TestDepthInvariance:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_all_depths_agree(self, mix_name):
        items = TokenWorkloadGenerator(
            12, seed=29, mix=MIXES[mix_name]
        ).generate(200)
        outcomes = [
            pipelined_run(
                lambda: ERC20TokenType(12, total_supply=240), items, depth
            )[:2]
            for depth in DEPTHS
        ]
        first_state, first_responses = outcomes[0]
        for state, responses in outcomes[1:]:
            assert state == first_state
            assert responses == first_responses

    def test_same_config_same_stats(self):
        items = TokenWorkloadGenerator(10, seed=5).generate(150)
        runs = [
            pipelined_run(
                lambda: ERC20TokenType(10, total_supply=100), items, 3
            )
            for _ in range(2)
        ]
        assert runs[0][:2] == runs[1][:2]
        assert runs[0][2].as_dict() == runs[1][2].as_dict()

    def test_pipeline_metrics_populated(self):
        items = TokenWorkloadGenerator(
            10, seed=11, mix=SPENDER_HEAVY_MIX
        ).generate(300)
        _, _, stats = pipelined_run(
            lambda: ERC20TokenType(10, total_supply=200), items, 3, window=16
        )
        assert stats.pipeline_depth == 3
        assert 1 <= stats.max_inflight_windows <= 3
        assert stats.virtual_time > 0
        # The clock is the makespan of the overlapped timeline, never the
        # sum of per-round latencies.
        assert stats.virtual_time <= sum(r.virtual_time for r in stats.rounds)

    def test_depth_one_keeps_one_window_in_flight(self):
        """Depth 1 is the same loop: window N+1 classifies only once
        window N has completed, so nothing ever overlaps."""
        items = TokenWorkloadGenerator(
            10, seed=11, mix=SPENDER_HEAVY_MIX
        ).generate(300)
        _, _, stats = pipelined_run(
            lambda: ERC20TokenType(10, total_supply=200), items, 1, window=16
        )
        assert stats.pipeline_depth == 1
        assert stats.max_inflight_windows == 1
        assert stats.overlap_time == 0.0
        assert stats.virtual_time == sum(r.virtual_time for r in stats.rounds)


class TestUnitCost:
    def test_every_placed_op_costs_one_unit(self, monkeypatch):
        unit = []  # per placed op: it lasts exactly one unit
        place = pipeline_module.dag_list_schedule

        def timed(*args, **kwargs):
            placed = place(*args, **kwargs)
            unit.extend(end == start + 1 for start, end, _ in placed)
            return placed

        monkeypatch.setattr(pipeline_module, "dag_list_schedule", timed)
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(12, seed=3).generate(120)
        engine = PipelinedExecutor(token, EngineConfig(window=16))
        engine.run_workload(items)
        stats = engine.stats
        assert len(unit) == stats.ops_executed == 120
        assert all(unit)
        assert stats.op_cost == 1.0
        assert stats.serial_virtual_time == 120 + stats.escalation_time


class TestStageMachine:
    def test_drain_on_empty_mempool_returns_none(self):
        engine = PipelinedExecutor(ERC20TokenType(4, total_supply=40))
        assert engine.lifecycle.drain(engine.mempool, 8, 0) is None


class TestTracedIntake:
    def test_paced_submit_stamps_follow_the_admission_clock(self):
        """A bounded mempool paces ``run_workload``: ops admitted after
        the first windows were scheduled are stamped with the admission
        time then (``stream_now``), not with the commit-time clock that
        still reads 0 — traced latency must not charge an op for time
        before it was submitted."""
        from repro.obs import TraceRecorder

        tracer = TraceRecorder()
        engine = PipelinedExecutor(
            ERC20TokenType(16, total_supply=1600),
            EngineConfig(window=16, num_lanes=4, mempool_capacity=16),
            tracer=tracer,
        )
        items = TokenWorkloadGenerator(
            16, seed=7, mix=OWNER_ONLY_MIX
        ).generate(256)
        engine.run_workload(items)
        stamps = set()
        for seq in range(256):
            stages = tracer.lifecycle(seq)
            assert stages["submit"] <= stages["classify"] <= stages["commit"]
            stamps.add(stages["submit"])
        assert len(stamps) > 1
        assert max(stamps) > 0.0


class TestFrontierAccessKinds:
    """The per-location frontier is exactly the static commutativity test
    split by access kind.  Single-op windows make each operation its own
    pipeline unit, so the unit start times expose precisely which
    cross-window pairs the frontier orders and which it lets overlap."""

    def _units(self, calls, lanes=4):
        engine = PipelinedExecutor(
            ERC20TokenType(8, total_supply=80),
            EngineConfig(pipeline_depth=8, num_lanes=lanes, window=1),
        )
        tap = tap_placements(engine)
        for pid, operation in calls:
            engine.submit(pid, operation)
        engine.run()
        assert tap.flagged == []
        return sorted(tap.units, key=lambda u: u.op.seq)

    def test_read_read_sharing_overlaps(self):
        first, second = self._units(
            [(0, op("balanceOf", 5)), (1, op("balanceOf", 5))]
        )
        assert second.start < first.finish
        assert second.frontier_stall == 0.0

    def test_delta_delta_sharing_overlaps(self):
        # Two credits into account 2 from distinct sources: deltas to one
        # cell commute, so the windows overlap.
        first, second = self._units(
            [(0, op("transfer", 2, 1)), (1, op("transfer", 2, 1))]
        )
        assert second.start < first.finish
        assert second.frontier_stall == 0.0

    def test_read_gates_on_earlier_write(self):
        first, second = self._units(
            [(0, op("transfer", 5, 1)), (2, op("balanceOf", 0))]
        )
        assert second.start >= first.finish
        assert second.frontier_stall > 0.0

    def test_write_gates_on_earlier_read(self):
        first, second = self._units(
            [(2, op("balanceOf", 5)), (5, op("transfer", 6, 1))]
        )
        assert second.start >= first.finish
        assert second.frontier_stall > 0.0

    def test_absolute_writes_serialize(self):
        first, second = self._units(
            [(0, op("approve", 1, 5)), (0, op("approve", 1, 7))]
        )
        assert second.start >= first.finish

    def test_disjoint_footprints_overlap(self):
        first, second = self._units(
            [(0, op("transfer", 1, 1)), (2, op("transfer", 3, 1))]
        )
        assert second.start < first.finish
        assert second.frontier_stall == 0.0


class TestTierZeroPlacement:
    """An op that commutes with its whole window is scheduling-free: no
    edge, no DAG, one lane pick.  It lands on the earliest-free lane (lowest
    id on ties) at ``max(t_classify, dep_ready)``, in submission order —
    which is what the list scheduler gives zero-in-degree tasks of equal
    priority, so the engine may place it through the one scheduler."""

    def test_isolated_ops_take_the_earliest_free_lane_at_their_floor(self):
        lanes = 8
        engine = PipelinedExecutor(
            ERC20TokenType(16, total_supply=160),
            EngineConfig(pipeline_depth=2, num_lanes=lanes, window=4),
        )
        writers = [(a, op("transfer", a + 8, 1)) for a in range(4)]
        # Reads commute with each other; the last two wait, across the
        # window boundary, for the transfer that debits account 0.  Floors
        # ascend in submission order, so no op fits a gap behind an earlier
        # one and the earliest-free-lane rule is the whole story.
        readers = [
            (9, op("balanceOf", 14)),
            (9, op("balanceOf", 15)),
            (9, op("balanceOf", 0)),
            (10, op("balanceOf", 0)),
        ]
        tap = tap_placements(engine)
        for pid, operation in writers + readers:
            engine.submit(pid, operation)
        engine.step()
        first = list(tap.units)
        t_classify = engine.stream_now()
        wave = engine.step()
        assert wave.wave_ops == len(readers)  # every op is isolated
        units = sorted(tap.units[len(first) :], key=lambda u: u.op.seq)
        engine.run()

        # The lane timeline the first window left behind is not uniform.
        lane_free = [0.0] * lanes
        for unit in first:
            lane_free[unit.lane] = max(lane_free[unit.lane], unit.finish)
        assert len(set(lane_free)) > 1
        debited = {unit.op.pid: unit.finish for unit in first}
        floors = [
            max(t_classify, debited.get(operation.args[0], 0.0))
            for _, operation in readers
        ]
        assert floors == sorted(floors) and floors[-1] > t_classify

        expected = dag_list_schedule(
            preds=[()] * len(readers),
            priorities=[1] * len(readers),
            lane_free=list(lane_free),
            floors=floors,
        )
        for unit, floor, slot in zip(units, floors, expected):
            free = min(lane_free)
            lane = lane_free.index(free)
            start = max(free, floor)
            lane_free[lane] = start + 1
            assert (unit.start, unit.finish, unit.lane) == slot
            assert slot == (start, lane_free[lane], lane)
            base = max(free, t_classify)
            assert unit.frontier_stall == max(0.0, floor - base)


class TestInvalidOpRaisesAtPlanning:
    """An op whose footprint passes planning but whose ``apply`` rejects
    it raises :class:`InvalidArgumentError` from the ``step`` that plans
    its window, since the window is applied there.  Nothing of that
    window is committed: ``state`` and ``responses`` still read the last
    ``run``, though ops before the invalid one were already applied —
    which is why every later ``step`` / ``run`` re-raises."""

    def _raises_at_step(self, token, committed, window):
        engine = PipelinedExecutor(token, EngineConfig(window=len(window)))
        for pid, operation in committed:
            engine.submit(pid, operation)
        engine.run()
        state, responses = engine.state, dict(engine.responses)
        assert len(responses) == len(committed)
        for pid, operation in window:
            engine.submit(pid, operation)
        with pytest.raises(InvalidArgumentError):
            engine.step()
        assert engine.state is state
        assert engine.responses == responses
        # The batch keeps the ops applied before the raise, so the engine
        # refuses to go on rather than commit them without responses.
        with pytest.raises(InvalidArgumentError):
            engine.run()
        assert engine.state is state
        assert engine.responses == responses

    def test_erc20_transfer_to_an_unknown_account(self):
        # ERC20's footprint checks only the caller, so ``transfer`` to
        # account 99 plans like any transfer.
        self._raises_at_step(
            ERC20TokenType(4, total_supply=40),
            [(0, op("transfer", 1, 5)), (1, op("balanceOf", 0))],
            [
                (1, op("transfer", 2, 1)),
                (2, op("balanceOf", 1)),
                (0, op("transfer", 99, 1)),
                (3, op("balanceOf", 3)),
            ],
        )

    def test_erc1155_balance_of_an_unknown_account(self):
        # ERC1155 has no footprint: every op plans as unknown.
        self._raises_at_step(
            ERC1155TokenType([[10, 4], [0, 0], [0, 0]]),
            [(0, op("safeTransferFrom", 0, 1, 0, 3))],
            [
                (0, op("safeTransferFrom", 0, 2, 1, 1)),
                (1, op("balanceOf", 99, 0)),
                (2, op("balanceOf", 2, 1)),
            ],
        )
