"""Every generator's draws, held to a written-out reference.

The reference makes each draw with the plain ``random.Random`` call it
stands for — ``choices(...)[0]``, ``randrange``, ``randint`` — and the
skew model's index as those calls spell it.  A generator must give the
reference's items and leave its RNG in the reference's state, so every
baseline, virtual time and oracle digest that starts from a generated
workload stays put.  A Python release that changes those calls' own
arithmetic moves the reference with the generators; the pinned digest
fails on it instead of the baselines moving.
"""

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

import repro.workloads as workloads
from repro.cluster.sharding import ShardMap
from repro.cluster.workloads import owner_local_workload
from repro.spec.operation import Operation
from repro.workloads import (
    AssetTransferWorkloadGenerator,
    NFTWorkloadGenerator,
    TokenWorkloadGenerator,
    WorkloadItem,
    WorkloadMix,
)
from repro.workloads.skew import skew_drawer, zipf_weights

MIXES = {
    "default": WorkloadMix(),
    "owner_only": workloads.OWNER_ONLY_MIX,
    "spender_heavy": workloads.SPENDER_HEAVY_MIX,
    "approval_heavy": workloads.APPROVAL_HEAVY_MIX,
    "chain_heavy": workloads.CHAIN_HEAVY_MIX,
}
#: A mix given as ``WorkloadMix`` kwargs, as the wall's read-mostly one is.
MIXES["dict"] = WorkloadMix(
    transfer=0.1,
    transfer_from=0.03,
    approve=0.05,
    balance_of=0.55,
    allowance=0.25,
    total_supply=0.02,
)
#: ``(zipf_s, hotspot_fraction)``; the hot spot is the first two indices.
KNOBS = [(0.0, 0.0), (1.0, 0.0), (0.0, 0.3), (1.0, 0.3)]


def skewed_index(rng, count, zipf_s, hot):
    if hot > 0 and rng.random() < hot:
        return rng.randrange(min(2, count))
    if zipf_s == 0:
        return rng.randrange(count)
    return rng.choices(range(count), weights=zipf_weights(count, zipf_s))[0]


def token_reference(count, accounts, seed, mix, zipf_s, hot, pool, top):
    rng = random.Random(seed)

    def account():
        return skewed_index(rng, accounts, zipf_s, hot)

    def member(pid):
        base = pid - pid % pool
        return base + rng.randrange(min(pool, accounts - base))

    items = []
    for _ in range(count):
        names, weights = zip(*mix.weights())
        name = rng.choices(names, weights=weights)[0]
        pid = account()
        if name == "transfer":
            args = (account(), rng.randint(0, top))
        elif name == "transferFrom":
            source = member(pid) if pool else account()
            args = (source, account(), rng.randint(0, top))
        elif name == "approve":
            args = (member(pid) if pool else account(), rng.randint(0, top))
        elif name == "balanceOf":
            args = (account(),)
        elif name == "allowance":
            args = (account(), account())
        else:
            args = ()
        items.append(WorkloadItem(pid, Operation(name, args)))
    return items, rng.getstate()


def nft_reference(count, tokens, zipf_s, hot):
    rng = random.Random(tokens)

    def token():
        return skewed_index(rng, tokens, zipf_s, hot)

    items = []
    for _ in range(count):
        pid = rng.randrange(5)
        name = rng.choices(
            ("transferFrom", "approve", "ownerOf", "setApprovalForAll"),
            weights=(0.45, 0.2, 0.25, 0.1),
        )[0]
        if name == "transferFrom":
            args = (rng.randrange(5), rng.randrange(5), token())
        elif name == "approve":
            args = (rng.randrange(5), token())
        elif name == "ownerOf":
            args = (token(),)
        else:
            args = (rng.randrange(5), rng.random() < 0.5)
        items.append(WorkloadItem(pid, Operation(name, args)))
    return items, rng.getstate()


def asset_reference(count, accounts, zipf_s, hot, top):
    rng = random.Random(accounts)

    def account():
        return skewed_index(rng, accounts, zipf_s, hot)

    items = []
    for _ in range(count):
        pid = rng.randrange(5)
        if rng.random() < 0.2:
            operation = Operation("balanceOf", (account(),))
        else:
            args = (account(), account(), rng.randint(0, top))
            operation = Operation("transfer", args)
        items.append(WorkloadItem(pid, operation))
    return items, rng.getstate()


def owner_local_reference(count, pools, seed, zipf_s, hot):
    rng = random.Random(seed)
    items = []
    for _ in range(count):
        pool = pools[skewed_index(rng, len(pools), zipf_s, hot)]
        if rng.random() < 0.2 or len(pool) < 2:
            pid = rng.choice(pool)
            operation = Operation("balanceOf", (rng.choice(pool),))
        else:
            pid, dest = rng.sample(pool, 2)
            operation = Operation("transfer", (dest, rng.randint(0, 10)))
        items.append(WorkloadItem(pid, operation))
    return items


TOKEN_GRID = [
    (mix, zipf_s, hot, pool, top, accounts)
    for mix, (zipf_s, hot), pool, top, accounts in product(
        sorted(MIXES), KNOBS, (0, 4), (0, 10), (1, 7, 256)
    )
    if pool <= accounts
]


@pytest.mark.parametrize("mix, zipf_s, hot, pool, top, accounts", TOKEN_GRID)
def test_token_items_are_the_reference(mix, zipf_s, hot, pool, top, accounts):
    seed = len(mix) + accounts
    generator = TokenWorkloadGenerator(
        accounts,
        seed=seed,
        mix=MIXES[mix],
        max_value=top,
        zipf_s=zipf_s,
        hotspot_fraction=hot,
        hotspot_accounts=min(2, accounts),
        spender_pool=pool,
    )
    # generate() and next_item() draw through one RNG, interleaved.
    items = generator.generate(40) + [generator.next_item()]
    items += generator.generate(25) + [generator.next_item()]
    items += [generator.next_item()] + generator.generate(52)
    expected = token_reference(
        120, accounts, seed, MIXES[mix], zipf_s, hot, pool, top
    )
    assert (items, generator._rng.getstate()) == expected


@pytest.mark.parametrize("zipf_s, hot", KNOBS)
@pytest.mark.parametrize("count", [1, 7, 256])
def test_skew_nft_and_asset_draws_are_the_reference(zipf_s, hot, count):
    rng, twin = random.Random(count), random.Random(count)
    draw = skew_drawer(rng, count, zipf_s, hot, min(2, count))
    indices = [draw() for _ in range(300)]
    assert indices == [skewed_index(twin, count, zipf_s, hot) for _ in indices]
    assert rng.getstate() == twin.getstate()
    skew = {"zipf_s": zipf_s, "hotspot_fraction": hot}
    hot_count = min(2, count)
    nft = NFTWorkloadGenerator(
        5, count, count, hotspot_tokens=hot_count, **skew
    )
    items = [nft.next_item() for _ in range(150)]
    expected = nft_reference(150, count, zipf_s, hot)
    assert (items, nft._rng.getstate()) == expected
    for top in (0, 10):
        asset = AssetTransferWorkloadGenerator(
            count, 5, count, hotspot_accounts=hot_count, max_value=top, **skew
        )
        items = [asset.next_item() for _ in range(150)]
        expected = asset_reference(150, count, zipf_s, hot, top)
        assert (items, asset._rng.getstate()) == expected


@pytest.mark.parametrize("zipf_s, hot", KNOBS)
@pytest.mark.parametrize("nodes, accounts", [(1, 2), (4, 7), (4, 256)])
def test_owner_local_items_are_the_reference(zipf_s, hot, nodes, accounts):
    shard_map = ShardMap(2 * nodes, nodes)
    by_node = {}
    for account in range(accounts):
        by_node.setdefault(shard_map.owner_of(account), []).append(account)
    pools = [by_node[node] for node in sorted(by_node)]
    items = owner_local_workload(
        shard_map,
        accounts,
        200,
        seed=accounts,
        zipf_s=zipf_s,
        hotspot_fraction=hot,
        hotspot_nodes=min(2, nodes),
    )
    assert items == owner_local_reference(200, pools, accounts, zipf_s, hot)


def test_a_wall_shaped_spender_workload_keeps_its_digest():
    """``cluster_spender``'s items at seed 7 (256 accounts, Zipf 1.0,
    spender pools of 4), as the generators drew them through ``choices``
    and ``randint``."""
    items = TokenWorkloadGenerator(
        256,
        seed=7,
        mix=workloads.SPENDER_HEAVY_MIX,
        zipf_s=1.0,
        spender_pool=4,
    ).generate(6144)
    assert hashlib.sha256(repr(items).encode()).hexdigest() == (
        "97df9622323ffe65cdcdbc1bc2314e48bcb0d10045a205a652666c97dd62ee61"
    )
