"""``Δ`` dispatch by method name: one handler lookup on
``SequentialObjectType`` serves the five token families, and
``object_type.apply`` — looked up on the instance at every call — stays the
per-operation boundary that tracing wraps."""

from __future__ import annotations

import dataclasses
import re
from collections import Counter

import pytest

from repro.cluster import TokenCluster
from repro.config import ClusterConfig, EngineConfig
from repro.engine import PipelinedExecutor
from repro.errors import InvalidArgumentError, UnknownOperationError
from repro.objects.asset_transfer import AssetTransferType
from repro.objects.erc20 import ERC20TokenType
from repro.objects.erc721 import ERC721TokenType
from repro.objects.erc777 import ERC777TokenType
from repro.objects.erc1155 import ERC1155TokenType
from repro.spec.operation import op
from repro.workloads import TokenWorkloadGenerator, serial_reference

FAMILIES = {
    "erc20": (
        lambda: ERC20TokenType(2, total_supply=4),
        "transfer, transferFrom, approve, balanceOf, allowance, totalSupply",
    ),
    "erc721": (
        lambda: ERC721TokenType(2, [0, 1]),
        "ownerOf, balanceOf, transferFrom, approve, getApproved, "
        "setApprovalForAll, isApprovedForAll",
    ),
    "erc777": (
        lambda: ERC777TokenType([1, 1]),
        "send, operatorSend, authorizeOperator, revokeOperator, "
        "isOperatorFor, balanceOf, totalSupply",
    ),
    "erc1155": (
        lambda: ERC1155TokenType([[1], [1]]),
        "balanceOf, balanceOfBatch, safeTransferFrom, "
        "safeBatchTransferFrom, setApprovalForAll, isApprovedForAll",
    ),
    "asset-transfer": (
        lambda: AssetTransferType([1, 1]),
        "transfer, balanceOf, totalSupply",
    ),
}


@pytest.mark.parametrize("family", ["erc721", "erc777", "erc1155"])
def test_the_shared_operator_update_keeps_the_rest_of_the_state(family):
    """``objects.base.with_operator`` is the operator update of all three:
    the state's own class again, only the holder's operator set moved."""
    object_type = FAMILIES[family][0]()
    state = object_type.initial_state()
    act = op("setApprovalForAll", 1, True)
    if family == "erc777":
        act = op("authorizeOperator", 1)
    after, _ = object_type.apply(state, 0, act)
    operators = (frozenset({1}), frozenset())
    assert after == dataclasses.replace(state, operators=operators)
    assert type(after) is type(state)


@pytest.mark.parametrize("family", FAMILIES)
def test_one_lookup_serves_every_family(family):
    build, supported = FAMILIES[family]
    object_type = build()
    state = object_type.initial_state()
    with pytest.raises(UnknownOperationError) as raised:
        object_type.apply(state, 0, op("mint", 1))
    assert str(raised.value) == (
        f"{family} does not support operation 'mint'; supported: {supported}"
    )
    # The name is judged before the caller, as it always was.
    with pytest.raises(UnknownOperationError):
        object_type.apply(state, 99, op("mint", 1))
    # Every supported name resolves to that family's own branch of Δ.
    for name in object_type.operation_names():
        assert object_type._handler(op(name)) == getattr(
            object_type, f"_apply_{name}"
        )


@pytest.mark.parametrize(
    "pid, operation",
    [
        (0, op("mint", 1)),
        (99, op("mint", 1)),
        (99, op("balanceOf", 0)),
        (-1, op("approve", 1, 1)),
        ("0", op("totalSupply")),
    ],
)
def test_erc20_footprint_checks_as_apply_does(pid, operation):
    """ERC20's ``footprint`` judges the name, then the caller, raising
    exactly what ``apply`` raises for the same invocation."""
    token = ERC20TokenType(2, total_supply=4)
    with pytest.raises((InvalidArgumentError, UnknownOperationError)) as by:
        token.apply(token.initial_state(), pid, operation)
    with pytest.raises(type(by.value), match=re.escape(str(by.value))):
        token.footprint(pid, operation)


class TestERC20Extensions:
    @pytest.mark.parametrize("name", ERC20TokenType.EXTENSION_OPERATIONS)
    def test_disabled_extensions_are_unknown_operations(self, name):
        token = ERC20TokenType(2, total_supply=4)
        with pytest.raises(UnknownOperationError, match="supported: transfer"):
            token.apply(token.initial_state(), 0, op(name, 1, 1))
        with pytest.raises(UnknownOperationError, match="supported: transfer"):
            token.footprint(0, op(name, 1, 1))

    def test_enabled_extensions_dispatch(self):
        token = ERC20TokenType(2, total_supply=4, with_extensions=True)
        state, result = token.apply(
            token.initial_state(), 0, op("increaseAllowance", 1, 3)
        )
        assert result is True and state.allowance(0, 1) == 3
        with pytest.raises(InvalidArgumentError):
            token.apply(state, 7, op("decreaseAllowance", 1, 1))


class TestApplyIsTheInstanceBoundary:
    """The spans contract (``benchmarks/wall/spans.py`` wraps
    ``object_type.apply`` on the instance): whoever applies an operation
    calls the instance's attribute at that moment, not a method captured
    earlier."""

    @staticmethod
    def counting(token):
        calls = []
        inner = token.apply

        def counted(state, pid, operation):
            calls.append(operation)
            return inner(state, pid, operation)

        token.apply = counted
        return calls

    ITEMS = TokenWorkloadGenerator(8, seed=5).generate(48)
    OPERATIONS = [item.operation for item in ITEMS]

    def test_run(self):
        token = ERC20TokenType(8, total_supply=80)
        expected = serial_reference(token, self.ITEMS)
        calls = self.counting(token)
        assert serial_reference(token, self.ITEMS) == expected
        assert calls == self.OPERATIONS

    def test_engine_commit(self):
        token = ERC20TokenType(8, total_supply=80)
        expected = serial_reference(token, self.ITEMS)
        executor = PipelinedExecutor(token, EngineConfig(num_lanes=2, window=8))
        calls = self.counting(token)
        state, responses, _ = executor.run_workload(self.ITEMS)
        assert (state, responses) == expected
        # Once each, in submission order, as the spec's ``run`` does.
        assert calls == self.OPERATIONS

    def test_cluster_apply_callback(self):
        token = ERC20TokenType(8, total_supply=80)
        expected = serial_reference(token, self.ITEMS)
        cluster = TokenCluster(token, ClusterConfig(num_nodes=2, window=8))
        calls = self.counting(token)
        state, responses, _ = cluster.run_workload(self.ITEMS)
        assert (state, responses) == expected
        assert Counter(calls) == Counter(self.OPERATIONS)
