"""The router's protocol records on their own: no router, no network, no
clock.  ``_Peer.suspect`` takes ``now`` and returns a verdict; ``_Unit``'s
lifecycle methods take ``now`` and return what the router bills.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.router import _Peer
from repro.cluster.routing import _Unit
from repro.engine import PendingOp
from repro.engine.conflict_graph import ComponentDAG
from repro.objects.footprint import EMPTY_FOOTPRINT
from repro.spec.operation import op

TIMEOUT = 10.0


def test_the_first_suspicion_pings_and_opens_the_probe():
    peer = _Peer()
    assert peer.suspect(5.0, TIMEOUT) == "ping"
    assert peer.probe == 5.0
    assert peer.suspect(6.0, TIMEOUT) == "pending"
    assert peer.probe == 5.0


def test_a_pong_proves_life_without_moving_the_deadline():
    peer = _Peer(last_heard=2.0, outstanding_work=3.0)
    deadline = peer.deadline(TIMEOUT)
    assert deadline == 15.0
    assert peer.suspect(deadline, TIMEOUT) == "ping"
    peer.last_pong = 16.0  # all that ``handle_cl_pong`` records
    assert peer.suspect(17.0, TIMEOUT) == "alive"
    # An answer is not progress: re-arming the deadline whose expiry sent
    # the probe would have the router ping for ever.
    assert peer.deadline(TIMEOUT) == deadline


def test_a_probe_unanswered_for_a_full_timeout_says_dead():
    peer = _Peer(last_heard=2.0)
    assert peer.suspect(5.0, TIMEOUT) == "ping"
    assert peer.suspect(14.9, TIMEOUT) == "pending"
    assert peer.suspect(15.0, TIMEOUT) == "dead"
    # A pong from before the probe opened answers nothing.
    stale = _Peer(last_pong=4.0)
    stale.suspect(5.0, TIMEOUT)
    assert stale.suspect(15.0, TIMEOUT) == "dead"


def test_a_result_or_ack_after_the_probe_says_alive_and_extends_the_deadline():
    peer = _Peer(last_heard=2.0)
    peer.suspect(5.0, TIMEOUT)
    peer.last_heard = 6.0
    assert peer.suspect(30.0, TIMEOUT) == "alive"
    assert peer.deadline(TIMEOUT) == 16.0


def test_an_answered_probe_stays_open_until_its_verdict_is_acted_on():
    """A lease timer waiting on a second party re-asks about the first:
    the first one's answer must still be there."""
    peer = _Peer()
    peer.suspect(5.0, TIMEOUT)
    peer.last_pong = 6.0
    assert peer.suspect(7.0, TIMEOUT) == "alive"
    assert peer.suspect(40.0, TIMEOUT) == "alive"
    peer.probe = None  # the caller retires it
    assert peer.suspect(41.0, TIMEOUT) == "ping"


# -- the unit lifecycle ------------------------------------------------------


class Timer:
    """What the simulator hands back for a scheduled callback."""

    def __init__(self) -> None:
        self.cancelled = 0

    def cancel(self) -> None:
        self.cancelled += 1


def a_unit(**fields) -> _Unit:
    ops = tuple(PendingOp(seq, 0, op("transfer", 1, 1)) for seq in (4, 7))
    defaults = dict(
        ops=ops,
        contended=True,
        sync_delay=2.5,
        leases=2,
        round=3,
        node=1,
        uidx=0,
        summary=EMPTY_FOOTPRINT,
        dag=ComponentDAG(((), (0,)), (2, 1), 2, 1),
    )
    return _Unit(**{**defaults, **fields})


def test_a_gate_stall_is_returned_once_and_cleared_by_dispatch():
    unit = a_unit()
    unit.block(5.0)
    unit.block(6.0)  # only the first refusal starts the clock
    assert unit.blocked_since == 5.0 and not unit.dispatched
    assert unit.dispatch(9.0) == (4.0, 0.0)
    assert unit.dispatched and unit.blocked_since is None
    # A unit the gate never refused stalls for nothing.
    assert a_unit().dispatch(9.0) == (0.0, 0.0)


def test_a_replay_incarnation_bills_recovery_never_frontier_stall():
    """The trace charges a delayed dispatch to ``recovery`` whenever the
    recovery stall is positive, and may: a replay's gate stall — requeue
    restarts that clock — lies inside its recovery window."""
    unit = a_unit()
    unit.block(1.0)
    unit.dispatch(2.0)
    unit.requeue(target=2, uidx=1 << 20, now=10.0)
    assert unit.blocked_since is None  # the original's stall was billed
    unit.block(12.0)
    gate_stall, recovery_stall = unit.dispatch(15.0)
    assert (gate_stall, recovery_stall) == (3.0, 5.0)
    assert 0 <= gate_stall <= recovery_stall
    # ... and the recovery stall too is reported once.
    unit.requeue(target=0, uidx=(1 << 20) + 1, now=20.0)
    assert unit.dispatch(20.0) == (0.0, 0.0)


def test_settle_is_idempotent_and_returns_the_envelope_exactly_once():
    unit, timer = a_unit(), Timer()
    unit.dispatch(0.0)
    assert unit.charge(6.5) == 6.5
    unit.watch(timer)
    assert unit.settle(done=True) == 6.5
    assert unit.done and unit.timer is None and timer.cancelled == 1
    assert unit.settle(done=True) == 0.0
    assert unit.settle(done=False) == 0.0  # a straggler cannot undo it
    assert unit.done and timer.cancelled == 1
    # Without recovery nothing is charged and nothing is armed.
    bare = a_unit()
    bare.dispatch(0.0)
    assert bare.settle(done=True) == 0.0 and bare.done


def test_requeue_keeps_the_plan_and_drops_the_leases():
    unit = a_unit()
    summary, dag = unit.summary, unit.dag
    unit.dispatch(1.0)
    unit.settle(done=False)
    unit.requeue(target=2, uidx=1 << 20, now=4.0)
    assert (unit.round, unit.node, unit.uidx) == (3, 2, 1 << 20)
    assert unit.leases == 0 and not unit.dispatched and not unit.done
    assert unit.summary is summary and unit.dag is dag
    assert unit.sync_delay == 2.5 and unit.contended
    assert unit.episodes == (1,)
    # Failing over the same node again joins its episode once.
    unit.requeue(target=1, uidx=(1 << 20) + 1, now=5.0)
    unit.requeue(target=2, uidx=(1 << 20) + 2, now=6.0)
    assert unit.episodes == (1, 2)


EVENTS = st.lists(
    st.sampled_from(["block", "dispatch", "result", "fail", "rearm"]),
    max_size=30,
)


@settings(max_examples=200, deadline=None)
@given(events=EVENTS)
def test_every_dispatched_unit_ends_done_or_requeued(events):
    """Drive one record the way the router does (gate → dispatch, charge,
    watch → result | fail-over → requeue) over arbitrary interleavings:
    whatever was charged is handed back exactly once, no timer outlives
    its incarnation, and a dispatched unit is never left in limbo."""
    unit = a_unit()
    charged = returned = 0.0
    timers: list[Timer] = []
    now, replays = 0.0, 0
    for event in events:
        now += 1.0
        if unit.done:
            break
        if event == "block" and not unit.dispatched:
            unit.block(now)
        elif event == "dispatch" and not unit.dispatched:
            gate_stall, recovery_stall = unit.dispatch(now)
            assert gate_stall >= 0 and recovery_stall >= 0
            charged += unit.charge(2.0)
            timers.append(Timer())
            unit.watch(timers[-1])
        elif event == "rearm" and unit.dispatched:
            timers.append(Timer())  # the old one fired: it is consumed
            unit.watch(timers[-1])
        elif event == "result" and unit.dispatched:
            returned += unit.settle(done=True)
        elif event == "fail":
            returned += unit.settle(done=False)
            replays += 1
            unit.requeue(target=replays % 3, uidx=(1 << 20) + replays, now=now)
    if unit.dispatched and not unit.done:
        # Quiescence: the router settles or replays whatever it sent.
        returned += unit.settle(done=True)
    assert returned == charged
    assert unit.timer is None and unit.envelope == 0.0
    assert unit.done or not unit.dispatched
    assert all(timer.cancelled <= 1 for timer in timers)
    assert unit.leases in (0, 2) and (unit.leases == 2) == (replays == 0)
