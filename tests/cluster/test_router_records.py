"""The failure detector's liveness rule on a bare record: no router, no
network, no clock — ``_Peer.suspect`` takes ``now`` and returns a verdict.
"""

from __future__ import annotations

from repro.cluster.router import _Peer

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
