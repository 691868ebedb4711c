"""Tests for workload generation."""

from __future__ import annotations

import random

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
    WorkloadItem,
    WorkloadMix,
    example1_trace,
)
from repro.workloads.skew import zipf_weights


def reference_token_workload(
    count, num_accounts, seed, mix, zipf_s, hotspot_fraction, spender_pool
):
    """``TokenWorkloadGenerator.generate`` drawing with ``weights=`` — the
    mix and the Zipf weights re-accumulated by ``random.choices`` on every
    draw, as the generator did before it accumulated them once.  Kept as
    the specification: same items, same RNG state afterwards."""
    rng = random.Random(seed)
    weights = zipf_weights(num_accounts, zipf_s) if zipf_s > 0 else None

    def account():
        if hotspot_fraction > 0 and rng.random() < hotspot_fraction:
            return rng.randrange(2)
        if weights is None:
            return rng.randrange(num_accounts)
        return rng.choices(range(num_accounts), weights=weights)[0]

    def pool_member(pid):
        base = pid - pid % spender_pool
        return base + rng.randrange(min(spender_pool, num_accounts - base))

    def value():
        return rng.randint(0, 10)

    items = []
    for _ in range(count):
        names, mix_weights = zip(*mix.weights())
        name = rng.choices(names, weights=mix_weights)[0]
        pid = account()
        if name == "transfer":
            args = (account(), value())
        elif name == "transferFrom":
            source = pool_member(pid) if spender_pool else account()
            args = (source, account(), value())
        elif name == "approve":
            spender = pool_member(pid) if spender_pool else account()
            args = (spender, value())
        elif name == "balanceOf":
            args = (account(),)
        elif name == "allowance":
            args = (account(), account())
        else:
            args = ()
        items.append(WorkloadItem(pid, Operation(name, args)))
    return items, rng.getstate()


class TestGenerator:
    def test_deterministic_per_seed(self):
        a = TokenWorkloadGenerator(4, seed=1).generate(50)
        b = TokenWorkloadGenerator(4, seed=1).generate(50)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7, 7003])
    @pytest.mark.parametrize("zipf_s", [0.0, 0.8, 1.0])
    @pytest.mark.parametrize("hotspot_fraction", [0.0, 0.3])
    @pytest.mark.parametrize("spender_pool", [0, 4])
    def test_accumulated_weights_draw_the_same_items(
        self, seed, zipf_s, hotspot_fraction, spender_pool
    ):
        generator = TokenWorkloadGenerator(
            37,
            seed=seed,
            mix=SPENDER_HEAVY_MIX if spender_pool else WorkloadMix(),
            zipf_s=zipf_s,
            hotspot_fraction=hotspot_fraction,
            hotspot_accounts=2,
            spender_pool=spender_pool,
        )
        expected, rng_state = reference_token_workload(
            400,
            37,
            seed,
            generator.mix,
            zipf_s,
            hotspot_fraction,
            spender_pool,
        )
        assert generator.generate(400) == expected
        assert generator._rng.getstate() == rng_state

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

    def test_zipf_skew_concentrates_accounts(self):
        uniform = TokenWorkloadGenerator(10, seed=5)
        skewed = TokenWorkloadGenerator(10, seed=5, zipf_s=1.5)
        from collections import Counter

        uniform_counts = Counter(i.pid for i in uniform.generate(1000))
        skewed_counts = Counter(i.pid for i in skewed.generate(1000))
        assert skewed_counts[0] > 2 * uniform_counts[0]

    def test_hotspot_skew_concentrates_accounts(self):
        from collections import Counter

        uniform = TokenWorkloadGenerator(20, seed=9)
        hot = TokenWorkloadGenerator(
            20, seed=9, hotspot_fraction=0.8, hotspot_accounts=2
        )
        uniform_counts = Counter(i.pid for i in uniform.generate(1000))
        hot_counts = Counter(i.pid for i in hot.generate(1000))
        hot_share = (hot_counts[0] + hot_counts[1]) / 1000
        uniform_share = (uniform_counts[0] + uniform_counts[1]) / 1000
        assert hot_share > 0.7
        assert uniform_share < 0.3

    def test_hotspot_is_deterministic_per_seed(self):
        make = lambda: TokenWorkloadGenerator(  # noqa: E731
            16, seed=42, hotspot_fraction=0.5, hotspot_accounts=3, zipf_s=1.1
        )
        assert make().generate(200) == make().generate(200)

    def test_hotspot_composes_with_zipf(self):
        """The overlay draws hot traffic; the Zipf base covers the rest."""
        from collections import Counter

        generator = TokenWorkloadGenerator(
            30, seed=3, zipf_s=1.5, hotspot_fraction=0.5, hotspot_accounts=1
        )
        counts = Counter(i.pid for i in generator.generate(2000))
        assert counts[0] > 1000  # hot overlay plus Zipf head
        assert len(counts) > 5  # tail still covered

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


class TestNFTGenerator:
    def test_deterministic_and_domain_valid(self):
        from repro.objects.erc721 import ERC721TokenType
        from repro.workloads.generators import NFTWorkloadGenerator

        a = NFTWorkloadGenerator(4, num_tokens=8, seed=7).generate(100)
        b = NFTWorkloadGenerator(4, num_tokens=8, seed=7).generate(100)
        assert a == b
        token = ERC721TokenType(4, initial_owners=[t % 4 for t in range(8)])
        state = token.initial_state()
        for item in a:
            state, _ = token.apply(state, item.pid, item.operation)

    def test_token_skew_concentrates_hot_tokens(self):
        from collections import Counter

        from repro.workloads.generators import NFTWorkloadGenerator

        def touched_tokens(generator):
            counts = Counter()
            for item in generator.generate(800):
                if item.operation.name in ("transferFrom", "ownerOf"):
                    counts[item.operation.args[-1 if item.operation.name == "transferFrom" else 0]] += 1
            return counts

        uniform = touched_tokens(NFTWorkloadGenerator(4, num_tokens=20, seed=3))
        hot = touched_tokens(
            NFTWorkloadGenerator(
                4, num_tokens=20, seed=3, hotspot_fraction=0.7, hotspot_tokens=2
            )
        )
        assert hot[0] + hot[1] > uniform[0] + uniform[1]

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

        a = AssetTransferWorkloadGenerator(6, num_processes=6, seed=5).generate(
            80
        )
        b = AssetTransferWorkloadGenerator(6, num_processes=6, seed=5).generate(
            80
        )
        assert a == b
        asset = AssetTransferType([30] * 6, num_processes=6)
        state = asset.initial_state()
        for item in a:
            state, _ = asset.apply(state, item.pid, item.operation)
        assert state.total_supply == 180

    def test_zipf_skew_exposed(self):
        from collections import Counter

        from repro.workloads.generators import AssetTransferWorkloadGenerator

        def source_counts(generator):
            counts = Counter()
            for item in generator.generate(600):
                if item.operation.name == "transfer":
                    counts[item.operation.args[0]] += 1
            return counts

        uniform = source_counts(
            AssetTransferWorkloadGenerator(10, num_processes=10, seed=2)
        )
        skewed = source_counts(
            AssetTransferWorkloadGenerator(
                10, num_processes=10, seed=2, zipf_s=1.5
            )
        )
        assert skewed[0] > uniform[0]


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
