"""Tests for the consensus-hierarchy registry."""

from __future__ import annotations

import importlib.util
import math
import re

from repro.analysis.hierarchy import (
    KNOWN_HIERARCHY,
    token_consensus_number,
    token_consensus_number_bounds,
)
from repro.analysis.partition import make_synchronization_state
from repro.objects.erc20 import TokenState


class TestTokenConsensusNumber:
    def test_deployed_state_has_cn_1(self):
        # The paper's conclusion: a freshly deployed ERC20 token needs no
        # synchronization at all.
        state = TokenState.deploy(5, 100)
        assert token_consensus_number(state) == 1

    def test_synchronization_state_has_cn_k(self):
        for k in (2, 3, 4):
            state = make_synchronization_state(k + 1, k)
            assert token_consensus_number(state) == k
            assert token_consensus_number_bounds(state) == (k, k)

    def test_erratum_state_has_open_gap(self):
        # Literal-U-only states certify lower bound 1 but upper bound 2.
        state = TokenState.create([10, 0], {(0, 1): 11})
        lower, upper = token_consensus_number_bounds(state)
        assert lower == 1
        assert upper == 2

    def test_dynamicity(self):
        # The headline result: the consensus number changes with the state.
        state = TokenState.deploy(4, 10)
        assert token_consensus_number(state) == 1
        approved = state.with_allowance(0, 1, 10).with_allowance(0, 2, 10)
        assert token_consensus_number(approved) == 3


class TestRegistry:
    def test_register_entry(self):
        entries = {e.object_family: e for e in KNOWN_HIERARCHY}
        assert entries["atomic register"].consensus_number == 1

    def test_consensus_is_universal(self):
        entries = {e.object_family: e for e in KNOWN_HIERARCHY}
        assert entries["consensus object"].consensus_number == math.inf

    def test_single_owner_at_is_level_1(self):
        entries = {e.object_family: e for e in KNOWN_HIERARCHY}
        assert entries["asset transfer (single-owner)"].consensus_number == 1

    def test_k_shared_at_is_parametric(self):
        # CN(k-AT) = k has no single value; its lower bound is the race
        # protocol of protocols/kat_consensus.
        entries = {e.object_family: e for e in KNOWN_HIERARCHY}
        entry = entries["k-shared asset transfer"]
        assert math.isnan(entry.consensus_number)
        assert "repro.protocols.kat_consensus" in entry.lower_bound_witness

    def test_every_named_witness_resolves(self):
        named = {
            name
            for entry in KNOWN_HIERARCHY
            for text in (entry.lower_bound_witness, entry.upper_bound_witness)
            for name in re.findall(r"repro(?:\.\w+)+", text)
        }
        assert named
        for name in named:
            assert importlib.util.find_spec(name) is not None, name
