"""Tests for the replica-side synchronization tracker."""

from __future__ import annotations

from repro.dynamic.sync_tracker import (
    GroupSizeTracker,
    ReplicaTokenState,
    sync_group,
    sync_levels,
)
from repro.objects.erc20 import assign_allowance


class TestReplicaState:
    def test_create(self):
        state = ReplicaTokenState.create(3, deployer=0, supply=10)
        assert state.balances == [10, 0, 0]
        assert state.allowances == [{}, {}, {}]

    def test_copy_is_deep(self):
        state = ReplicaTokenState.create(2, 0, 5)
        clone = state.copy()
        clone.balances[0] = 0
        clone.allowances[0][1] = 9
        assert state.balances[0] == 5
        assert state.allowances[0] == {}

    def test_snapshot_hashable_and_equal(self):
        a = ReplicaTokenState.create(2, 0, 5)
        b = ReplicaTokenState.create(2, 0, 5)
        assert a.snapshot() == b.snapshot()
        assert hash(a.snapshot()) == hash(b.snapshot())
        assign_allowance(a.allowances[0], 1, 3)  # b never had it
        assign_allowance(a.allowances[0], 1, 0)
        assert a.snapshot() == b.snapshot()
        assert hash(a.snapshot()) == hash(b.snapshot())


class TestSyncGroup:
    def test_owner_only_by_default(self):
        state = ReplicaTokenState.create(3, 0, 10)
        assert sync_group(state, 0) == {0}

    def test_allowance_expands_group(self):
        state = ReplicaTokenState.create(3, 0, 10)
        state.allowances[0][2] = 5
        assert sync_group(state, 0) == {0, 2}

    def test_a_zeroed_allowance_leaves_the_group(self):
        state = ReplicaTokenState.create(3, 0, 10)
        assign_allowance(state.allowances[0], 1, 5)
        assign_allowance(state.allowances[0], 2, 5)
        assign_allowance(state.allowances[0], 1, 0)
        assert state.allowances[0] == {2: 5}
        assert sync_group(state, 0) == {0, 2}

    def test_zero_balance_convention(self):
        state = ReplicaTokenState.create(3, 0, 10)
        state.allowances[1][2] = 5  # account 1 is empty
        assert sync_group(state, 1) == {1}

    def test_negative_transient_balance_counts_as_empty(self):
        state = ReplicaTokenState.create(2, 0, 5)
        state.balances[1] = -2
        assert sync_group(state, 1) == {1}

    def test_levels_vector(self):
        state = ReplicaTokenState.create(3, 0, 10)
        state.allowances[0][1] = 1
        state.allowances[0][2] = 1
        assert sync_levels(state) == [3, 1, 1]


class TestTracker:
    def test_records_and_summarizes(self):
        tracker = GroupSizeTracker()
        state = ReplicaTokenState.create(2, 0, 5)
        tracker.record(1.0, state)
        state.allowances[0][1] = 5
        tracker.record(2.0, state)
        assert tracker.max_level_seen() == 2
        histogram = tracker.level_histogram()
        assert histogram[1] == 3  # account 1 twice + account 0 once
        assert histogram[2] == 1

    def test_empty_tracker(self):
        assert GroupSizeTracker().max_level_seen() == 1
