"""Engine determinism and serial equivalence (the ISSUE's property suite).

Two machine-checked guarantees:

* **lane determinism** — the same seed and workload produce the *same*
  final token state (and responses) for 1, 2, 4 and 8 lanes;
* **serial equivalence** — the engine's final state and every response
  equal a plain sequential execution of the workload, in submission
  order, against the object's sequential specification.

Both are exercised across workload mixes, account skews (uniform, Zipf,
hot-spot), window sizes, and object types.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.commutativity import audit_static_kinds
from repro.config import EngineConfig
from repro.engine import PipelinedExecutor
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
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

LANE_COUNTS = (1, 2, 4, 8)

MIXES = {
    "owner_only": OWNER_ONLY_MIX,
    "default": WorkloadMix(),
    "spender_heavy": SPENDER_HEAVY_MIX,
    "approval_heavy": APPROVAL_HEAVY_MIX,
}


def engine_run(object_type_factory, items, lanes, window=32, **knobs):
    engine = PipelinedExecutor(
        object_type_factory(),
        EngineConfig(num_lanes=lanes, window=window, **knobs),
    )
    state, responses, stats = engine.run_workload(items)
    return state, responses, stats


class TestLaneDeterminism:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_final_state_identical_across_lane_counts(self, mix_name):
        factory = lambda: ERC20TokenType(12, total_supply=240)  # noqa: E731
        items = TokenWorkloadGenerator(
            12, seed=29, mix=MIXES[mix_name]
        ).generate(300)
        outcomes = [
            engine_run(factory, items, lanes)[:2] for lanes in LANE_COUNTS
        ]
        first_state, first_responses = outcomes[0]
        for state, responses in outcomes[1:]:
            assert state == first_state
            assert responses == first_responses

    def test_same_seed_same_everything(self):
        factory = lambda: ERC20TokenType(10, total_supply=100)  # noqa: E731
        items = TokenWorkloadGenerator(10, seed=5).generate(150)
        s1, r1, st1 = engine_run(factory, items, 4)
        s2, r2, st2 = engine_run(factory, items, 4)
        assert (s1, r1) == (s2, r2)
        assert st1.as_dict() == st2.as_dict()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        window=st.integers(1, 80),
        zipf=st.sampled_from([0.0, 1.2]),
    )
    def test_determinism_under_random_seeds_and_windows(
        self, seed, window, zipf
    ):
        factory = lambda: ERC20TokenType(8, total_supply=80)  # noqa: E731
        items = TokenWorkloadGenerator(8, seed=seed, zipf_s=zipf).generate(120)
        states = {
            engine_run(factory, items, lanes, window=window)[0]
            for lanes in LANE_COUNTS
        }
        assert len(states) == 1


class TestSerialEquivalence:
    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_erc20_state_and_responses_match_spec(self, mix_name, lanes):
        token = ERC20TokenType(12, total_supply=240)
        items = TokenWorkloadGenerator(
            12, seed=71, mix=MIXES[mix_name]
        ).generate(300)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = engine_run(
            lambda: ERC20TokenType(12, total_supply=240), items, lanes
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        lanes=st.sampled_from(LANE_COUNTS),
        hotspot=st.sampled_from([0.0, 0.6]),
    )
    def test_erc20_hypothesis_sweep(self, seed, lanes, hotspot):
        token = ERC20TokenType(8, total_supply=80)
        items = TokenWorkloadGenerator(
            8,
            seed=seed,
            mix=SPENDER_HEAVY_MIX,
            hotspot_fraction=hotspot,
            hotspot_accounts=2,
        ).generate(100)
        ref_state, ref_responses = serial_reference(token, items)
        state, responses, _ = engine_run(
            lambda: ERC20TokenType(8, total_supply=80), items, lanes
        )
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), lanes=st.sampled_from(LANE_COUNTS))
    def test_asset_transfer_shared_accounts(self, seed, lanes):
        owner_map = [{0, 1}, {1}, {2}, {3}, {0, 3}]
        factory = lambda: AssetTransferType(  # noqa: E731
            [20] * 5, owner_map=owner_map, num_processes=4
        )
        transfers = AssetTransferWorkloadGenerator(
            5, 4, seed=seed, max_value=6, read_fraction=0.0
        )
        items = [transfers.next_item() for _ in range(80)]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = engine_run(factory, items, lanes, window=16)
        assert state == ref_state
        assert responses == ref_responses

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), lanes=st.sampled_from(LANE_COUNTS))
    def test_erc721_races(self, seed, lanes):
        factory = lambda: ERC721TokenType(4, initial_owners=[0, 1, 2, 3, 0, 1])  # noqa: E731
        nft = NFTWorkloadGenerator(4, num_tokens=6, seed=seed)
        items = [nft.next_item() for _ in range(60)]
        ref_state, ref_responses = serial_reference(factory(), items)
        state, responses, _ = engine_run(factory, items, lanes, window=16)
        assert state == ref_state
        assert responses == ref_responses


class TestValidatedRuns:
    """Full runs beside the oracle audit: every static verdict of the
    engine's windows is checked at the window's prefix state."""

    @pytest.mark.parametrize("mix_name", sorted(MIXES))
    def test_validated_against_oracle(self, mix_name):
        factory = lambda: ERC20TokenType(10, total_supply=200)  # noqa: E731
        items = TokenWorkloadGenerator(
            10, seed=13, mix=MIXES[mix_name]
        ).generate(200)
        state, responses, stats = engine_run(factory, items, 4)
        assert (state, responses) == serial_reference(factory(), items)
        assert stats.ops_executed == 200
        audit = audit_static_kinds(factory(), items, 32)
        assert audit.violations == []
        assert audit.pairs == 6 * 32 * 31 // 2 + 8 * 7 // 2
