"""Workload generation: seeded random token traffic and the paper's
Example 1 trace.

Workloads drive the differential tests (E4), the dynamics experiment (E5),
and the network benchmarks (E8).  All generators are deterministic per seed.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate
from typing import Callable, Sequence

from repro._records import field, record
from repro.errors import InvalidArgumentError
from repro.spec.operation import Operation
from repro.workloads.skew import skew_drawer


@record(frozen=True, slots=True)
class WorkloadItem:
    """One operation of a token workload."""

    pid: int
    operation: Operation

    def __str__(self) -> str:
        return f"p{self.pid}: {self.operation}"


@record
class WorkloadMix:
    """Relative operation-type weights for a generated workload."""

    transfer: float = 0.5
    transfer_from: float = 0.2
    approve: float = 0.15
    balance_of: float = 0.1
    allowance: float = 0.04
    total_supply: float = 0.01

    def weights(self) -> list[tuple[str, float]]:
        entries = [
            ("transfer", self.transfer),
            ("transferFrom", self.transfer_from),
            ("approve", self.approve),
            ("balanceOf", self.balance_of),
            ("allowance", self.allowance),
            ("totalSupply", self.total_supply),
        ]
        if any(weight < 0 for _, weight in entries):
            raise InvalidArgumentError("mix weights must be non-negative")
        if sum(weight for _, weight in entries) <= 0:
            raise InvalidArgumentError("mix weights must not all be zero")
        return entries


#: Owner-traffic-only mix: the consensus-number-1 regime of the paper.
OWNER_ONLY_MIX = WorkloadMix(
    transfer=0.8, transfer_from=0.0, approve=0.0, balance_of=0.2, allowance=0.0
)

#: Spender-heavy mix: stresses the synchronization groups.
SPENDER_HEAVY_MIX = WorkloadMix(
    transfer=0.25,
    transfer_from=0.45,
    approve=0.2,
    balance_of=0.1,
    allowance=0.0,
)

#: Approval-heavy mix: maximizes approve/transferFrom races (Theorem 3's
#: Case 4) — the worst case for the execution engine's escalation path.
APPROVAL_HEAVY_MIX = WorkloadMix(
    transfer=0.15,
    transfer_from=0.35,
    approve=0.4,
    balance_of=0.1,
    allowance=0.0,
)

#: Chain-heavy mix: long mixed approve/transferFrom/allowance components.
#: Approvals and allowance reads against *distinct* spenders mutually
#: commute while each pairs with its own transferFrom, so the resulting
#: conflict components are long but wide (antichain width ≥ 2) — the
#: administrated-token traffic shape (Ivanov et al.) where op-granular
#: DAG scheduling beats chain-atomic placement the hardest.
CHAIN_HEAVY_MIX = WorkloadMix(
    transfer=0.1,
    transfer_from=0.3,
    approve=0.4,
    balance_of=0.05,
    allowance=0.15,
)


@record
class TokenWorkloadGenerator:
    """Seeded random generator of ERC20 operations.

    Accounts are drawn either uniformly or with a Zipf-like skew
    (``zipf_s > 0``), reflecting the heavy-tailed account popularity measured
    on real ERC20 traffic (Victor & Lüders [27], cited by the paper).

    On top of either base distribution, a *hot-spot* overlay
    (``hotspot_fraction > 0``) routes that fraction of all account draws
    uniformly into the first ``hotspot_accounts`` accounts — the
    exchange-wallet pattern: a few accounts appear in a large share of all
    transfers.  This is the contention knob the execution engine
    (:mod:`repro.engine`) is benchmarked under; like everything here it is
    deterministic per seed.

    ``spender_pool > 0`` confines the *spender relation* to contiguous
    account groups of that size: ``approve`` picks its spender from the
    caller's own group and ``transferFrom`` picks its source there too, so
    every account's potential-spender set (:func:`repro.analysis.spenders.
    potential_spenders`) stays within its group — the administrated-token
    pattern (a bounded operator set per account, cf. Ivanov et al.) that
    keeps the paper's consensus number ``k(q)`` at most ``spender_pool``
    while ``n`` grows.  This is the traffic shape the tiered
    synchronization lanes (:mod:`repro.sync`) are benchmarked under.
    """

    num_accounts: int
    seed: int = 0
    mix: WorkloadMix = field(default_factory=WorkloadMix)
    max_value: int = 10
    zipf_s: float = 0.0
    hotspot_fraction: float = 0.0
    hotspot_accounts: int = 1
    spender_pool: int = 0

    def __post_init__(self) -> None:
        if self.num_accounts < 1:
            raise InvalidArgumentError("need at least one account")
        if self.max_value < 0:
            raise InvalidArgumentError("max_value must be non-negative")
        if self.spender_pool < 0 or self.spender_pool > self.num_accounts:
            raise InvalidArgumentError(
                f"spender_pool must be in [0, {self.num_accounts}]"
            )
        self._rng = random.Random(self.seed)
        self._draw = self._item_drawer()

    def _item_drawer(self) -> Callable[[], WorkloadItem]:
        """One item's draw, built once: the knobs, the mix's accumulated
        weights and the RNG's methods are bound here.  The mix draw makes
        ``Random.choices``' arithmetic, as accounts do (see
        :func:`~repro.workloads.skew.skew_drawer`), and a value draw is
        ``randrange(max_value + 1)``, which is ``randint(0, max_value)``.
        """
        rng, n, pool = self._rng, self.num_accounts, self.spender_pool
        random, randrange = rng.random, rng.randrange
        account = skew_drawer(
            rng, n, self.zipf_s, self.hotspot_fraction, self.hotspot_accounts
        )
        # The mix is read (and validated) once, here.
        names, weights = zip(*self.mix.weights())
        cum_names = list(accumulate(weights))
        total, last = cum_names[-1] + 0.0, len(names) - 1
        values = self.max_value + 1

        def pool_member(pid: int) -> int:
            """An account from ``pid``'s spender pool (``pid`` allowed)."""
            base = pid - pid % pool
            return base + randrange(min(pool, n - base))

        def item() -> WorkloadItem:
            name = names[bisect(cum_names, random() * total, 0, last)]
            pid = account()
            if name == "transfer":
                args = (account(), randrange(values))
            elif name == "transferFrom":
                source = pool_member(pid) if pool else account()
                args = (source, account(), randrange(values))
            elif name == "approve":
                spender = pool_member(pid) if pool else account()
                args = (spender, randrange(values))
            elif name == "balanceOf":
                args = (account(),)
            elif name == "allowance":
                args = (account(), account())
            else:
                args = ()
            return WorkloadItem(pid, Operation(name, args))

        return item

    def next_item(self) -> WorkloadItem:
        """Generate one operation."""
        return self._draw()

    def generate(self, count: int) -> list[WorkloadItem]:
        """Generate ``count`` operations."""
        draw = self._draw
        return [draw() for _ in range(count)]


#: ERC721 operations and their accumulated draw weights.
_NFT_NAMES = ("transferFrom", "approve", "ownerOf", "setApprovalForAll")
_NFT_WEIGHTS = list(accumulate((0.45, 0.2, 0.25, 0.1)))


@record
class NFTWorkloadGenerator:
    """Seeded random generator of ERC721 operations.

    Token-id popularity carries the skew (``zipf_s`` base distribution plus
    a ``hotspot_fraction`` overlay on the first ``hotspot_tokens`` ids) —
    the §6 contention pattern is always about one specific token, so a hot
    token id is the NFT analogue of an exchange wallet.
    """

    num_processes: int
    num_tokens: int
    seed: int = 0
    zipf_s: float = 0.0
    hotspot_fraction: float = 0.0
    hotspot_tokens: int = 1

    def __post_init__(self) -> None:
        if self.num_processes < 1 or self.num_tokens < 1:
            raise InvalidArgumentError("need processes and tokens")
        self._rng = random.Random(self.seed)
        self._token = skew_drawer(
            self._rng,
            self.num_tokens,
            self.zipf_s,
            self.hotspot_fraction,
            self.hotspot_tokens,
        )

    def next_item(self) -> WorkloadItem:
        random, randrange = self._rng.random, self._rng.randrange
        processes, token = self.num_processes, self._token
        pid = randrange(processes)
        draw = random() * _NFT_WEIGHTS[-1]
        name = _NFT_NAMES[bisect(_NFT_WEIGHTS, draw, 0, len(_NFT_NAMES) - 1)]
        if name == "transferFrom":
            args = (randrange(processes), randrange(processes), token())
        elif name == "approve":
            args = (randrange(processes), token())
        elif name == "ownerOf":
            args = (token(),)
        else:
            args = (randrange(processes), random() < 0.5)
        return WorkloadItem(pid, Operation(name, args))


@record
class AssetTransferWorkloadGenerator:
    """Seeded random generator of asset-transfer operations (the paper's
    §5 object), with the same account-skew knobs as the token generators."""

    num_accounts: int
    num_processes: int
    seed: int = 0
    zipf_s: float = 0.0
    hotspot_fraction: float = 0.0
    hotspot_accounts: int = 1
    max_value: int = 10
    read_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.num_accounts < 1 or self.num_processes < 1:
            raise InvalidArgumentError("need accounts and processes")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise InvalidArgumentError("read_fraction must be in [0, 1]")
        self._rng = random.Random(self.seed)
        self._account = skew_drawer(
            self._rng,
            self.num_accounts,
            self.zipf_s,
            self.hotspot_fraction,
            self.hotspot_accounts,
        )

    def next_item(self) -> WorkloadItem:
        rng, account = self._rng, self._account
        pid = rng.randrange(self.num_processes)
        if rng.random() < self.read_fraction:
            return WorkloadItem(pid, Operation("balanceOf", (account(),)))
        args = (account(), account(), rng.randint(0, self.max_value))
        return WorkloadItem(pid, Operation("transfer", args))


@record(frozen=True, slots=True)
class MultiContractItem:
    """One operation of an interleaved multi-contract trace."""

    contract: str
    pid: int
    operation: Operation

    @property
    def item(self) -> WorkloadItem:
        return WorkloadItem(pid=self.pid, operation=self.operation)

    def __str__(self) -> str:
        return f"[{self.contract}] p{self.pid}: {self.operation}"


@record
class ContractStream:
    """One contract's operation stream inside a multi-contract mix."""

    name: str
    generator: object  # anything with next_item() -> WorkloadItem
    weight: float = 1.0


class MultiContractWorkloadGenerator:
    """Interleaves per-contract streams into one submission-ordered trace.

    Real token traffic is not one contract: exchanges settle ERC20
    transfers while NFT mints and asset transfers share the same mempool.
    Each draw picks a contract (seeded, weight-proportional) and takes that
    stream's next operation, so per-contract subsequences keep their own
    skew while the merged trace exercises multi-contract routing.  Use
    :meth:`split` to recover per-contract engine/cluster feeds.
    """

    def __init__(self, streams: list[ContractStream], seed: int = 0) -> None:
        if not streams:
            raise InvalidArgumentError("need at least one contract stream")
        names = [stream.name for stream in streams]
        if len(set(names)) != len(names):
            raise InvalidArgumentError("contract stream names must be unique")
        if any(stream.weight <= 0 for stream in streams):
            raise InvalidArgumentError("stream weights must be positive")
        self.streams = list(streams)
        self._rng = random.Random(seed)
        self._cum_weights = list(accumulate(s.weight for s in self.streams))

    def next_item(self) -> MultiContractItem:
        stream = self._rng.choices(
            self.streams, cum_weights=self._cum_weights
        )[0]
        item = stream.generator.next_item()
        return MultiContractItem(
            contract=stream.name, pid=item.pid, operation=item.operation
        )

    def generate(self, count: int) -> list[MultiContractItem]:
        return [self.next_item() for _ in range(count)]

    @staticmethod
    def split(
        items: Sequence[MultiContractItem],
    ) -> dict[str, list[WorkloadItem]]:
        """Per-contract subsequences (order preserved) for per-contract
        executors."""
        buckets: dict[str, list[WorkloadItem]] = {}
        for item in items:
            buckets.setdefault(item.contract, []).append(item.item)
        return buckets


def standard_multi_contract(
    num_accounts: int = 32,
    seed: int = 0,
    zipf_s: float = 0.0,
    hotspot_fraction: float = 0.0,
) -> tuple[dict, MultiContractWorkloadGenerator]:
    """The canonical three-contract deployment: an ERC20 token, an ERC721
    collection, and a §5 asset-transfer object, with one shared skew
    setting.  Returns ``(object_types_by_name, generator)`` so callers can
    route each subsequence to a matching executor (one engine or cluster
    per contract, the multi-token pattern)."""
    from repro.objects.asset_transfer import AssetTransferType
    from repro.objects.erc20 import ERC20TokenType
    from repro.objects.erc721 import ERC721TokenType

    hotspot_count = max(1, min(2, num_accounts))
    object_types = {
        "erc20": ERC20TokenType(num_accounts, total_supply=100 * num_accounts),
        "erc721": ERC721TokenType(
            num_accounts,
            initial_owners=[t % num_accounts for t in range(2 * num_accounts)],
        ),
        "asset": AssetTransferType(
            [50] * num_accounts, num_processes=num_accounts
        ),
    }
    generator = MultiContractWorkloadGenerator(
        [
            ContractStream(
                "erc20",
                TokenWorkloadGenerator(
                    num_accounts,
                    seed=seed,
                    zipf_s=zipf_s,
                    hotspot_fraction=hotspot_fraction,
                    hotspot_accounts=hotspot_count,
                ),
                weight=0.5,
            ),
            ContractStream(
                "erc721",
                NFTWorkloadGenerator(
                    num_accounts,
                    num_tokens=2 * num_accounts,
                    seed=seed + 1,
                    zipf_s=zipf_s,
                    hotspot_fraction=hotspot_fraction,
                    hotspot_tokens=hotspot_count,
                ),
                weight=0.25,
            ),
            ContractStream(
                "asset",
                AssetTransferWorkloadGenerator(
                    num_accounts,
                    num_processes=num_accounts,
                    seed=seed + 2,
                    zipf_s=zipf_s,
                    hotspot_fraction=hotspot_fraction,
                    hotspot_accounts=hotspot_count,
                ),
                weight=0.25,
            ),
        ],
        seed=seed,
    )
    return object_types, generator


def example1_trace() -> list[WorkloadItem]:
    """The paper's Example 1 (§4): Alice (p0) deploys with supply 10, sends 3
    to Bob (p1); Bob approves Charlie (p2) for 5; Charlie's first
    transferFrom fails on Bob's balance; his second succeeds."""
    return [
        WorkloadItem(0, Operation("transfer", (1, 3))),
        WorkloadItem(1, Operation("approve", (2, 5))),
        WorkloadItem(2, Operation("transferFrom", (1, 2, 5))),
        WorkloadItem(2, Operation("transferFrom", (1, 0, 1))),
    ]


#: Expected responses along Example 1's trace.
EXAMPLE1_RESPONSES: tuple[object, ...] = (True, True, False, True)

#: Expected balance vectors after each Example 1 step (q1..q4), 3 accounts.
EXAMPLE1_BALANCES: tuple[tuple[int, int, int], ...] = (
    (7, 3, 0),
    (7, 3, 0),
    (7, 3, 0),
    (8, 2, 0),
)


def serial_reference(object_type, items: Sequence[WorkloadItem]):
    """The sequential specification's verdict on a workload: ``(final
    state, responses)`` of applying the items one at a time in submission
    order — the oracle every executor's result must equal."""
    return object_type.run([(item.pid, item.operation) for item in items])
