"""Tests for repro.spec.operation."""

from __future__ import annotations

from repro.spec.operation import Invocation, Operation, Response, op


class TestOperation:
    def test_op_helper(self):
        assert op("transfer", 1, 5) == Operation("transfer", (1, 5))

    def test_no_args(self):
        assert op("totalSupply") == Operation("totalSupply", ())

    def test_equality_distinguishes_args(self):
        assert op("transfer", 1, 5) != op("transfer", 1, 6)
        assert op("transfer", 1, 5) != op("approve", 1, 5)

    def test_str(self):
        assert str(op("transfer", 1, 5)) == "transfer(1, 5)"
        assert str(op("totalSupply")) == "totalSupply()"


class TestEvents:
    def test_invocation_str(self):
        invocation = Invocation(2, "token", op("approve", 1, 5))
        assert "p2" in str(invocation)
        assert "token" in str(invocation)

    def test_response_carries_result(self):
        response = Response(1, "token", op("balanceOf", 0), 7)
        assert response.result == 7
        assert "7" in str(response)

    def test_events_hashable(self):
        event = Invocation(0, "r", op("read"))
        assert hash(event) == hash(Invocation(0, "r", op("read")))
