"""Tests for workload generation."""

from __future__ import annotations

import pytest

from repro.errors import InvalidArgumentError
from repro.objects.erc20 import ERC20TokenType
from repro.spec.operation import Operation
from repro.workloads.generators import (
    EXAMPLE1_BALANCES,
    EXAMPLE1_RESPONSES,
    OWNER_ONLY_MIX,
    SPENDER_HEAVY_MIX,
    TokenWorkloadGenerator,
    MultiContractItem,
    WorkloadMix,
    example1_trace,
)


class TestGenerator:
    def test_different_seeds_differ(self):
        a = TokenWorkloadGenerator(4, seed=1).generate(50)
        b = TokenWorkloadGenerator(4, seed=2).generate(50)
        assert a != b

    def test_items_valid_against_spec(self):
        token = ERC20TokenType(4, total_supply=30)
        items = TokenWorkloadGenerator(4, seed=3).generate(200)
        # Every generated item must be a domain-valid invocation.
        state = token.initial_state()
        for item in items:
            state, _ = token.apply(state, item.pid, item.operation)
        assert state.total_supply == 30

    def test_mix_respected(self):
        generator = TokenWorkloadGenerator(4, seed=4, mix=OWNER_ONLY_MIX)
        items = generator.generate(300)
        names = {item.operation.name for item in items}
        assert "transferFrom" not in names
        assert "approve" not in names

    def test_spender_heavy_mix_contains_spender_traffic(self):
        generator = TokenWorkloadGenerator(4, seed=4, mix=SPENDER_HEAVY_MIX)
        items = generator.generate(300)
        names = [item.operation.name for item in items]
        assert names.count("transferFrom") > 50

    def test_hotspot_validation(self):
        with pytest.raises(InvalidArgumentError):
            TokenWorkloadGenerator(4, hotspot_fraction=1.5)
        with pytest.raises(InvalidArgumentError):
            TokenWorkloadGenerator(4, hotspot_fraction=-0.1)
        with pytest.raises(InvalidArgumentError):
            TokenWorkloadGenerator(4, hotspot_accounts=0)
        with pytest.raises(InvalidArgumentError):
            TokenWorkloadGenerator(4, hotspot_accounts=5)

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            TokenWorkloadGenerator(0)
        with pytest.raises(InvalidArgumentError):
            TokenWorkloadGenerator(2, max_value=-1)
        with pytest.raises(InvalidArgumentError):
            WorkloadMix(transfer=-1).weights()
        with pytest.raises(InvalidArgumentError):
            WorkloadMix(
                transfer=0,
                transfer_from=0,
                approve=0,
                balance_of=0,
                allowance=0,
                total_supply=0,
            ).weights()


class TestItemText:
    def test_items_render_their_caller_and_operation(self):
        operation = Operation("transfer", (1, 5))
        item = MultiContractItem("usdc", 2, operation)
        assert str(item.item) == "p2: transfer(1, 5)"
        assert str(item) == "[usdc] p2: transfer(1, 5)"


class TestExample1:
    def test_trace_matches_paper(self):
        token = ERC20TokenType(3, total_supply=10)
        state = token.initial_state()
        for item, expected_response, expected_balances in zip(
            example1_trace(), EXAMPLE1_RESPONSES, EXAMPLE1_BALANCES
        ):
            state, response = token.apply(state, item.pid, item.operation)
            assert response == expected_response
            assert state.balances == expected_balances
        assert state.allowance(1, 2) == 4


def draw(generator, count: int) -> list:
    """``count`` items, one ``next_item()`` each."""
    return [generator.next_item() for _ in range(count)]


class TestNFTGenerator:
    def test_deterministic_and_domain_valid(self):
        from repro.objects.erc721 import ERC721TokenType
        from repro.workloads.generators import NFTWorkloadGenerator

        a = draw(NFTWorkloadGenerator(4, num_tokens=8, seed=7), 100)
        b = draw(NFTWorkloadGenerator(4, num_tokens=8, seed=7), 100)
        assert a == b
        token = ERC721TokenType(4, initial_owners=[t % 4 for t in range(8)])
        state = token.initial_state()
        for item in a:
            state, _ = token.apply(state, item.pid, item.operation)

    def test_rejects_bad_config(self):
        from repro.workloads.generators import NFTWorkloadGenerator

        with pytest.raises(InvalidArgumentError):
            NFTWorkloadGenerator(0, num_tokens=4)
        with pytest.raises(InvalidArgumentError):
            NFTWorkloadGenerator(4, num_tokens=4, hotspot_fraction=1.5)
        with pytest.raises(InvalidArgumentError):
            NFTWorkloadGenerator(4, num_tokens=4, hotspot_tokens=9)


class TestAssetTransferGenerator:
    def test_deterministic_and_domain_valid(self):
        from repro.objects.asset_transfer import AssetTransferType
        from repro.workloads.generators import AssetTransferWorkloadGenerator

        a = draw(AssetTransferWorkloadGenerator(6, num_processes=6, seed=5), 80)
        b = draw(AssetTransferWorkloadGenerator(6, num_processes=6, seed=5), 80)
        assert a == b
        asset = AssetTransferType([30] * 6, num_processes=6)
        state = asset.initial_state()
        for item in a:
            state, _ = asset.apply(state, item.pid, item.operation)
        assert state.total_supply == 180


class TestMultiContractGenerator:
    def test_interleaves_streams_deterministically(self):
        from repro.workloads.generators import (
            MultiContractWorkloadGenerator,
            standard_multi_contract,
        )

        _, g1 = standard_multi_contract(12, seed=9)
        _, g2 = standard_multi_contract(12, seed=9)
        items = g1.generate(200)
        assert items == g2.generate(200)
        contracts = {item.contract for item in items}
        assert contracts == {"erc20", "erc721", "asset"}
        per = MultiContractWorkloadGenerator.split(items)
        assert sum(len(sub) for sub in per.values()) == 200

    def test_split_preserves_per_contract_order_and_validity(self):
        from repro.workloads.generators import (
            MultiContractWorkloadGenerator,
            standard_multi_contract,
        )

        object_types, generator = standard_multi_contract(
            8, seed=4, zipf_s=1.0, hotspot_fraction=0.3
        )
        items = generator.generate(150)
        per_contract = MultiContractWorkloadGenerator.split(items)
        for name, sub in per_contract.items():
            object_type = object_types[name]
            state = object_type.initial_state()
            for item in sub:
                state, _ = object_type.apply(state, item.pid, item.operation)

    def test_rejects_bad_streams(self):
        from repro.workloads.generators import (
            ContractStream,
            MultiContractWorkloadGenerator,
            TokenWorkloadGenerator,
        )

        generator = TokenWorkloadGenerator(4, seed=0)
        with pytest.raises(InvalidArgumentError):
            MultiContractWorkloadGenerator([])
        with pytest.raises(InvalidArgumentError):
            MultiContractWorkloadGenerator(
                [
                    ContractStream("a", generator),
                    ContractStream("a", generator),
                ]
            )
        with pytest.raises(InvalidArgumentError):
            MultiContractWorkloadGenerator(
                [ContractStream("a", generator, weight=0)]
            )
