"""Decision engine and coordinator service tests."""

import os
import socket
import struct
import threading
import time

import pytest

from ftdp import checkpoint, errors, quorum, transport, wire
from ftdp.quorum import Decision, QuorumClient, QuorumCoordinator, QuorumEngine, Report
from ftdp.replica import ControlPlane


def reports(**kw):
    return {int(k[1:]): Report(next_step=v, incarnation=1) for k, v in kw.items()}


# ------------------------------------------------------------------ engine

def test_one_replica_behind():
    eng = QuorumEngine()
    d = eng.decide(reports(r0=100, r1=100, r2=100, r3=96))
    assert d.target_step == 100
    assert d.healthy == (0, 1, 2)
    assert d.behind == {3: 96}
    assert d.members == (0, 1, 2, 3)
    assert d.generation == 1 and d.epoch == 1


def test_cold_start_all_level():
    eng = QuorumEngine()
    d = eng.decide(reports(r0=1, r1=1, r2=1))
    assert d.target_step == 1
    assert d.healthy == (0, 1, 2) and not d.behind
    assert d.role_of(1) == "healthy" and d.role_of(9) == "unassigned"


def test_generation_steady_while_roles_stable():
    eng = QuorumEngine()
    g1 = eng.decide(reports(r0=1, r1=1)).generation
    g2 = eng.decide(reports(r0=2, r1=2)).generation
    g3 = eng.decide(reports(r0=3, r1=3)).generation
    assert g1 == g2 == g3 == 1


def test_generation_bumps_on_stall():
    eng = QuorumEngine()
    eng.decide(reports(r0=5, r1=5))
    d2 = eng.decide(reports(r0=5, r1=5))  # the step failed; retry
    d3 = eng.decide(reports(r0=5, r1=5))
    assert (d2.generation, d3.generation) == (2, 3)
    assert d2.target_step == d3.target_step == 5


def test_generation_bumps_on_role_change():
    eng = QuorumEngine()
    eng.decide(reports(r0=4, r1=4, r2=4))
    d = eng.decide(reports(r0=5, r1=5))  # replica 2 vanished
    assert d.generation == 2 and d.healthy == (0, 1) and not d.behind
    d = eng.decide(reports(r0=6, r1=6, r2=4))  # it is back, lagging
    assert d.generation == 3 and d.behind == {2: 4}
    d = eng.decide(reports(r0=7, r1=7, r2=7))  # caught up
    assert d.generation == 4 and d.healthy == (0, 1, 2)
    d = eng.decide(reports(r0=8, r1=8, r2=8))
    assert d.generation == 4


def test_dead_replicas_are_absent_not_behind():
    eng = QuorumEngine()
    eng.decide(reports(r0=9, r1=9, r2=9, r3=9))
    d = eng.decide(reports(r0=10, r1=10))
    assert d.members == (0, 1)


def test_incarnation_fencing():
    eng = QuorumEngine()
    assert eng.register(2, 1)
    d = eng.decide({0: Report(5, 1), 2: Report(5, 0)})  # stale incarnation
    assert d.members == (0,)
    assert eng.register(2, 3)
    assert not eng.register(2, 2)
    d = eng.decide({0: Report(6, 1), 2: Report(1, 3)})
    assert d.behind == {2: 1}


def test_admission_gate_parks_then_admits():
    eng = QuorumEngine()
    eng.decide(reports(r0=50, r1=50, r2=50))
    eng.admit_after(2, 70)
    d = eng.decide(reports(r0=51, r1=51, r2=1))
    assert d.members == (0, 1)  # rejoiner parked, not even "behind"
    assert eng.pending_joiners(reports(r0=69, r1=69)) == set()
    assert eng.pending_joiners(reports(r0=70, r1=70)) == {2}
    d = eng.decide(reports(r0=70, r1=70, r2=1))
    assert d.behind == {2: 1} and d.healthy == (0, 1)
    assert eng.pending_joiners(reports(r0=70, r1=70)) == set()  # cleared once included


def test_gated_report_alone_cannot_regress_target():
    eng = QuorumEngine()
    eng.decide(reports(r0=70, r1=70))
    eng.admit_after(2, 70)
    d = eng.decide(reports(r2=1))  # only the rejoiner reported this round
    assert d.members == ()
    assert d.target_step == 70 and eng.target_step == 70


def test_empty_round_leaves_roles_memory_intact():
    eng = QuorumEngine()
    d1 = eng.decide(reports(r0=3, r1=3))
    eng.admit_after(7, 99)
    d2 = eng.decide({7: Report(1, 1)})
    assert d2.members == () and d2.generation == d1.generation
    d3 = eng.decide(reports(r0=4, r1=4))
    assert d3.generation == d1.generation  # no phantom role change


def test_lost_frontier_holds_target_instead_of_regressing():
    eng = QuorumEngine()
    eng.decide(reports(r0=100, r1=100))
    # Both replicas report fresh state: the step-99 commit only exists in
    # processes that are gone, so nobody may be handed step 100 again.
    d = eng.decide(reports(r0=1, r1=1))
    assert d.target_step == 100 and eng.target_step == 100
    assert d.healthy == () and d.behind == {0: 1, 1: 1}
    assert d.generation == 2
    # A reporter back at the frontier resumes the run as the sole donor.
    d = eng.decide(reports(r0=100, r1=1))
    assert d.healthy == (0,) and d.behind == {1: 1}


def test_decision_wire_roundtrip():
    d = Decision(epoch=9, target_step=41, generation=3, healthy=(0, 2), behind={1: 7})
    assert Decision.decode(d.encode()) == d


# ------------------------------------------------------------- coordinator

def start_coordinator(ledger_path=os.devnull, **kw):
    listener = transport.Listener()
    coord = QuorumCoordinator(listener, ledger_path, **kw).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    return coord, addr


def exchange_all(clients, steps):
    out = {}

    def go(rid, client, step):
        out[rid] = client.exchange(step)

    threads = [threading.Thread(target=go, args=(rid, c, steps[rid]))
               for rid, c in clients.items()]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15.0)
    assert not any(t.is_alive() for t in threads), "exchange hung"
    return out


def test_coordinator_full_group_round():
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=2.0,
                                    expected_replicas=3)
    clients = {}
    try:
        clients = {rid: QuorumClient(addr, rid, incarnation=1,
                                     round_deadline_s=0.3, join_wait_s=2.0)
                   for rid in range(3)}
        out = exchange_all(clients, {0: 1, 1: 1, 2: 1})
        assert len({d.epoch for d in out.values()}) == 1
        d = out[0]
        assert d.healthy == (0, 1, 2) and d.target_step == 1 and not d.behind

        out = exchange_all(clients, {0: 2, 1: 2, 2: 1})  # replica 2 failed step 1
        d = out[0]
        assert d.target_step == 2 and d.healthy == (0, 1) and d.behind == {2: 1}
        assert out[2] == d
    finally:
        for c in clients.values():
            c.close()
        coord.stop()


def test_coordinator_drops_dead_replica_quickly():
    coord, addr = start_coordinator(round_deadline_s=0.4, join_wait_s=2.0,
                                    expected_replicas=3)
    clients = {}
    try:
        clients = {rid: QuorumClient(addr, rid, incarnation=1,
                                     round_deadline_s=0.4, join_wait_s=2.0)
                   for rid in range(3)}
        exchange_all(clients, {0: 1, 1: 1, 2: 1})
        clients.pop(2).close()
        time.sleep(0.2)  # let the reader notice the reset
        t0 = time.monotonic()
        out = exchange_all(clients, {0: 2, 1: 2})
        assert time.monotonic() - t0 < 2.0
        assert out[0].members == (0, 1)
    finally:
        for c in clients.values():
            c.close()
        coord.stop()


def test_coordinator_fences_stale_incarnation_connection():
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=2.0,
                                    expected_replicas=2)
    try:
        old = QuorumClient(addr, 1, incarnation=1, round_deadline_s=0.3, join_wait_s=1.0)
        peer = QuorumClient(addr, 0, incarnation=1, round_deadline_s=0.3, join_wait_s=1.0)
        exchange_all({0: peer, 1: old}, {0: 1, 1: 1})
        new = QuorumClient(addr, 1, incarnation=2, round_deadline_s=0.3, join_wait_s=1.0)
        time.sleep(0.2)  # the coordinator replaces and closes the stale link
        with pytest.raises((errors.Recoverable, errors.Fatal)):
            old.exchange(2, deadline_s=1.5)
        out = exchange_all({0: peer, 1: new}, {0: 2, 1: 1})
        assert out[0].behind == {1: 1}
        peer.close()
        new.close()
        old.close()
    finally:
        coord.stop()


def test_coordinator_drops_oversized_report_at_once():
    """A replica whose report claims more than a QUORUM_REPORT's length loses
    its link as soon as the length prefix arrives; without the bound the
    coordinator would wait for the claimed bytes for as long as the link
    lives."""
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=1.0)
    conn = transport.connect(addr, wire.HELLO_QUORUM, (0, 0, 1, 0))
    try:
        conn.sock.sendall(struct.pack("<I", 512 * 1024 * 1024))
        t0 = time.monotonic()
        with pytest.raises(errors.Recoverable) as ei:
            conn.recv_frame(timeout=4.0)
        assert ei.value.reason == errors.PEER_RESET
        assert time.monotonic() - t0 < 2.0
    finally:
        conn.close()
        coord.stop()


def test_coordinator_holds_round_for_scheduled_rejoin():
    coord, addr = start_coordinator(round_deadline_s=0.25, join_wait_s=3.0,
                                    expected_replicas=3)
    clients = {}
    try:
        clients = {rid: QuorumClient(addr, rid, incarnation=1,
                                     round_deadline_s=0.25, join_wait_s=3.0)
                   for rid in range(3)}
        exchange_all(clients, {0: 1, 1: 1, 2: 1})
        clients.pop(2).close()
        coord.expect_join(2, 3)
        out = exchange_all(clients, {0: 2, 1: 2})
        assert out[0].members == (0, 1)  # gate not reached; no waiting for 2

        rejoin_decisions = []

        def rejoiner():
            c = QuorumClient(addr, 2, incarnation=2,
                             round_deadline_s=0.25, join_wait_s=3.0)
            try:
                while True:
                    d = c.exchange(1)
                    rejoin_decisions.append(d)
                    if d.role_of(2) != "unassigned":
                        return
                    time.sleep(0.02)
            finally:
                c.close()

        t = threading.Thread(target=rejoiner)
        t.start()
        time.sleep(0.3)  # its early reports get parked
        out = exchange_all(clients, {0: 3, 1: 3})
        t.join(timeout=10.0)
        assert not t.is_alive()
        d = out[0]
        assert d.target_step == 3
        assert d.healthy == (0, 1) and d.behind == {2: 1}
        assert rejoin_decisions[-1] == d  # same round, same decision
    finally:
        for c in clients.values():
            c.close()
        coord.stop()


@pytest.mark.parametrize("report_after_s", [0.0, 0.02, 0.1])
def test_coordinator_first_round_waits_for_every_expected_report(report_after_s):
    """The startup barrier holds the first round until every expected
    replica has reported, not merely connected: a leader that dials after
    the round deadline has passed still lands in the first decision."""
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=2.0,
                                    expected_replicas=3)
    clients = {}
    out = {}

    def late():
        time.sleep(0.5)
        clients[2] = QuorumClient(addr, 2, incarnation=1,
                                  round_deadline_s=0.3, join_wait_s=2.0)
        time.sleep(report_after_s)
        out[2] = clients[2].exchange(1)

    try:
        clients.update({rid: QuorumClient(addr, rid, incarnation=1,
                                          round_deadline_s=0.3, join_wait_s=2.0)
                        for rid in range(2)})
        t = threading.Thread(target=late)
        t.start()
        out.update(exchange_all({rid: clients[rid] for rid in range(2)}, {0: 1, 1: 1}))
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert out[0].healthy == (0, 1, 2) and out[0].target_step == 1
        assert out[0] == out[1] == out[2]
    finally:
        for c in clients.values():
            c.close()
        coord.stop()


def assert_reset_at_once(conn, within_s=2.0):
    t0 = time.monotonic()
    with pytest.raises(errors.Recoverable) as ei:
        conn.recv_frame(timeout=4.0)
    assert ei.value.reason == errors.PEER_RESET
    assert time.monotonic() - t0 < within_s


@pytest.mark.parametrize("purpose", [wire.HELLO_RING, 3, wire.HELLO_FETCH],
                         ids=["ring", "ctrl", "fetch"])
def test_coordinator_closes_other_hellos_at_once(purpose):
    """A dial for a ring or fetch link, or of a purpose no one serves (3,
    once the commit star's), is closed as soon as its hello is read, not
    held until the coordinator stops."""
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=1.0)
    dials = [transport.connect(addr, purpose, (1, 0, 0, i)) for i in range(5)]
    try:
        for conn in dials:
            assert_reset_at_once(conn)
    finally:
        for conn in dials:
            conn.close()
        coord.stop()


@pytest.mark.parametrize("msg_type, payload", [
    (wire.QUORUM_REPORT, wire.encode_report(0, 1, 1, 1)),  # replica 1's, on 0's link
    (wire.HEARTBEAT, b""),
    (wire.QUORUM_VOTE, wire.encode_vote(1, 1, 1, 1, True, 2)),  # replica 1's, on 0's link
], ids=["report_of_another_replica", "not_a_report", "vote_of_another_replica"])
def test_coordinator_drops_a_link_that_misbehaves(msg_type, payload):
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=1.0)
    conn = transport.connect(addr, wire.HELLO_QUORUM, (0, 0, 1, 0))
    try:
        conn.send_frame(msg_type, 1, 0, payload)
        assert_reset_at_once(conn)
    finally:
        conn.close()
        coord.stop()


def test_coordinator_closes_a_silent_dial_at_the_hello_deadline(monkeypatch):
    monkeypatch.setattr(transport, "DEFAULT_TIMEOUT_S", 0.5)
    coord, addr = start_coordinator(round_deadline_s=0.3, join_wait_s=1.0)
    conn = transport.Connection(socket.create_connection(("127.0.0.1", addr.port)))
    try:
        t0 = time.monotonic()
        assert_reset_at_once(conn)
        assert time.monotonic() - t0 > 0.4
    finally:
        conn.close()
        coord.stop()


def test_client_gives_up_on_silent_coordinator():
    listener = transport.Listener()  # accepts dials, and nothing serves them
    try:
        client = QuorumClient(
            transport.PeerAddress(0, 0, "127.0.0.1", listener.port),
            replica_id=0, incarnation=1, round_deadline_s=0.1, join_wait_s=0.1)
        with pytest.raises(errors.Recoverable):
            client.exchange(1, deadline_s=0.6)
        client.close()
    finally:
        listener.close()


def vote_answered_by(msg_type, payload):
    """Replica 0 votes on epoch 4 against a bare listener that plays the
    coordinator: it reads the hello and the vote, then answers with one
    frame. Returns what the vote returned or raised, and the tag it sent."""
    listener = transport.Listener()
    played = {}

    def coordinator():
        conn = played["conn"] = transport.Connection(listener.sock.accept()[0])
        conn.recv_frame(timeout=5.0)  # the hello
        played["tag"] = conn.recv_frame(timeout=5.0).msg_type
        conn.send_frame(msg_type, 7, 5, payload)

    th = threading.Thread(target=coordinator, daemon=True)
    th.start()
    client = QuorumClient(transport.PeerAddress(0, 0, "127.0.0.1", listener.port),
                          replica_id=0, incarnation=1)
    try:
        out = client.vote(Decision(4, 7, 1, (0,), {}), True, 2)
    except errors.FtdpError as exc:
        out = exc
    finally:
        client.close()
        th.join(timeout=5.0)
        listener.close()
    assert not th.is_alive(), "the coordinator's answer hung"
    played["conn"].close()
    return out, played["tag"]


@pytest.mark.parametrize("epoch", [3, 4, 5, 6])
def test_vote_is_answered_by_the_next_epoch_only(epoch):
    answer = Decision(epoch, 8, 1, (0,), {}, True)
    out, tag = vote_answered_by(wire.QUORUM_DECISION, answer.encode())
    assert tag == wire.QUORUM_VOTE
    if epoch == 5:
        assert out == answer
    else:
        assert isinstance(out, errors.Fatal) and out.reason == errors.PROTOCOL_VIOLATION


def test_vote_answered_by_anything_but_a_decision_is_fatal():
    """Even a frame that holds the right decision, under another tag."""
    answer = Decision(5, 8, 1, (0,), {}, True)
    out, _tag = vote_answered_by(wire.QUORUM_REPORT, answer.encode())
    assert isinstance(out, errors.Fatal) and out.reason == errors.PROTOCOL_VIOLATION


# ------------------------------------------------------------- commit vote


class Voters:
    """n leaders on a started coordinator that keeps a ledger, each holding
    the first round's decision."""

    def __init__(self, tmp_path, n, round_deadline_s, steps):
        self.ledger = str(tmp_path / "ledger.txt")
        self.clients = {}
        self.coord, self.addr = start_coordinator(
            round_deadline_s=round_deadline_s, join_wait_s=2.0, expected_replicas=n,
            ledger_path=self.ledger)
        self.clients = {rid: QuorumClient(self.addr, rid, incarnation=1,
                                          round_deadline_s=round_deadline_s, join_wait_s=2.0)
                        for rid in range(n)}
        self.decisions = exchange_all(self.clients, steps or {rid: 1 for rid in range(n)})

    def vote(self, ballots, after=None):
        """Each replica in ballots votes (ok, cursor) on its own thread, after
        after[rid] seconds if given. Returns per replica the outcome (or the
        error), the seconds it took, and the ledger as it stood once the
        outcome was read; the decisions that brought the outcomes replace
        self.decisions."""
        outcomes, seconds, ledgers = {}, {}, {}

        def go(rid, ok, cursor):
            time.sleep((after or {}).get(rid, 0.0))
            t0 = time.monotonic()
            try:
                self.decisions[rid] = self.clients[rid].vote(self.decisions[rid], ok, cursor)
                outcomes[rid] = self.decisions[rid].outcome is True
            except errors.FtdpError as exc:
                outcomes[rid] = exc
            seconds[rid] = time.monotonic() - t0
            ledgers[rid] = checkpoint.parse_ledger(self.ledger)

        threads = [threading.Thread(target=go, args=(rid, *ballot))
                   for rid, ballot in ballots.items()]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=15.0)
        assert not any(t.is_alive() for t in threads), "vote hung"
        return outcomes, seconds, ledgers

    def close(self):
        for c in self.clients.values():
            c.close()
        self.coord.stop()


@pytest.fixture
def voters(tmp_path):
    made = []

    def make(n=3, round_deadline_s=0.3, steps=None):
        made.append(Voters(tmp_path, n, round_deadline_s, steps))
        return made[-1]

    yield make
    for v in made:
        v.close()


def test_vote_unanimous_commits_with_every_line_in_the_ledger_first(voters):
    v = voters()
    outcomes, _s, ledgers = v.vote({0: (True, 2), 1: (True, 4), 2: (True, 6)})
    assert outcomes == {0: True, 1: True, 2: True}
    # write-ahead: the ledger holds every healthy member's line before any
    # member reads the outcome
    assert ledgers == {rid: [(1, 0, 2), (1, 1, 4), (1, 2, 6)] for rid in range(3)}


def test_vote_single_no_forces_retry(voters):
    v = voters()
    outcomes, _s, _l = v.vote({0: (True, 2), 1: (False, 2), 2: (True, 2)})
    assert outcomes == {0: False, 1: False, 2: False}
    assert checkpoint.parse_ledger(v.ledger) == []


def test_vote_no_retries_without_waiting(voters):
    """Once every connected replica has voted, the decision carrying the
    outcome goes out at once, whatever the round deadline."""
    v = voters(round_deadline_s=2.0)
    outcomes, seconds, _l = v.vote({0: (False, 2), 1: (True, 2), 2: (True, 2)})
    assert outcomes == {0: False, 1: False, 2: False}
    assert max(seconds.values()) < 0.5


def test_vote_healthy_member_that_never_votes_costs_a_retry(voters):
    """A silent healthy member costs one round deadline, counted from the
    first vote. Its vote, once it comes, is too late to count, and the
    decision that closed the round, sent to it as a member, gives it the
    outcome at once."""
    v = voters(round_deadline_s=0.3)
    outcomes, seconds, _l = v.vote({0: (True, 2), 1: (True, 2)})  # 2 stays silent
    assert outcomes == {0: False, 1: False}
    assert 0.25 < max(seconds.values()) < 0.6
    assert checkpoint.parse_ledger(v.ledger) == []
    assert v.decisions[0].members == (0, 1)
    outcomes, seconds, _l = v.vote({2: (True, 2)})
    assert outcomes == {2: False} and seconds[2] < 0.2
    assert v.decisions[2] == v.decisions[0]


def test_vote_behind_member_gets_the_outcome(voters):
    """A lagging member's vote decides nothing, but as its report it holds
    the round, as any connected replica's report does; it hears the
    outcome like every member."""
    v = voters(steps={0: 1, 1: 1, 2: 0})
    assert v.decisions[0].healthy == (0, 1) and v.decisions[0].behind == {2: 0}
    outcomes, seconds, _l = v.vote({0: (True, 2), 1: (True, 4), 2: (False, 0)},
                                   after={2: 0.2})
    assert outcomes == {0: True, 1: True, 2: True}
    assert 0.15 < max(seconds[0], seconds[1]) < 0.5
    assert checkpoint.parse_ledger(v.ledger) == [(1, 0, 2), (1, 1, 4)]


@pytest.mark.parametrize("installed", [True, False], ids=["installed", "not_installed"])
def test_vote_of_a_lagging_member_is_its_report(voters, installed):
    """A lagger that installs the committed step is healthy at the next
    target; one that does not stays behind at the step it held."""
    v = voters(steps={0: 1, 1: 1, 2: 0})
    outcomes, _s, _l = v.vote({0: (True, 2), 1: (True, 4), 2: (installed, 0)})
    assert outcomes == {0: True, 1: True, 2: True}
    d = v.decisions[0]
    assert all(v.decisions[rid] == d for rid in range(3))
    assert d.target_step == 2 and d.outcome is True
    if installed:
        assert d.healthy == (0, 1, 2) and not d.behind
    else:
        assert d.healthy == (0, 1) and d.behind == {2: 0}


def test_parked_report_starts_no_round_before_the_first_vote(voters):
    """A replica outside the decision reports at once, while the members
    are still at their step. Its report starts no round deadline until the
    first vote is in, so slow members are not voted out by it."""
    v = voters(round_deadline_s=0.3)
    parked = QuorumClient(v.addr, 3, incarnation=1, round_deadline_s=0.3, join_wait_s=2.0)
    out = {}
    waiter = threading.Thread(target=lambda: out.update(d=parked.exchange(1)))
    try:
        waiter.start()
        outcomes, _s, _l = v.vote({rid: (True, 2) for rid in range(3)},
                                  after=dict.fromkeys(range(3), 0.5))
        waiter.join(timeout=5.0)
        assert outcomes == {0: True, 1: True, 2: True}
        assert out["d"] == v.decisions[0]
        assert out["d"].healthy == (0, 1, 2) and out["d"].behind == {3: 1}
    finally:
        parked.close()


def test_vote_solo_and_unassigned(voters, monkeypatch):
    """A solo member that failed, a replica outside the decision and a
    member of a decision with no healthy set have no vote: each reports the
    step it holds, and the decision that answers brings no commit."""
    v = voters(n=1)
    plane = ControlPlane(v.clients[0])
    sent = []
    real_send = v.clients[0].conn.send_frame

    def recording_send(msg_type, *args, **kwargs):
        sent.append(msg_type)
        return real_send(msg_type, *args, **kwargs)

    monkeypatch.setattr(v.clients[0].conn, "send_frame", recording_send)
    solo = v.decisions[0]
    assert solo.members == (0,)
    d = plane.round(solo, 1, True, 2)
    assert d.outcome is True and d.target_step == 2
    assert checkpoint.parse_ledger(v.ledger) == [(1, 0, 2)]
    outside = Decision(d.epoch, 2, 9, (1, 2), {})
    leaderless = Decision(d.epoch, 2, 9, (), {0: 1})
    for held, ok in ((d, False), (outside, True), (leaderless, True)):
        t0 = time.monotonic()
        d = plane.round(held, 2, ok, 4)
        assert d.outcome is not True and d.target_step == 2
        assert time.monotonic() - t0 < 0.5  # the only connected replica reported
    assert sent == [wire.QUORUM_VOTE] + [wire.QUORUM_REPORT] * 3
    assert plane.round(d, 2, True, 4).outcome is True
    assert checkpoint.parse_ledger(v.ledger) == [(1, 0, 2), (2, 0, 4)]


def test_vote_healthy_member_whose_link_drops_retries_at_once(voters):
    v = voters(round_deadline_s=2.0)
    drop = threading.Timer(0.2, v.clients[2].close)
    drop.start()
    outcomes, seconds, _l = v.vote({0: (True, 2), 1: (True, 2)})
    drop.join()
    assert outcomes == {0: False, 1: False}
    assert 0.15 < max(seconds.values()) < 1.0


def test_vote_for_a_closed_round_is_ignored(voters):
    v = voters(round_deadline_s=0.3)
    stale = v.decisions[2]
    assert v.vote({0: (False, 2), 1: (True, 2), 2: (True, 2)})[0] == dict.fromkeys(range(3), False)
    assert v.decisions[0].epoch > stale.epoch and v.decisions[0].healthy == (0, 1, 2)
    # 2 votes yes on the closed round only. Had that counted toward the open
    # vote, this commits; had it counted as 2's report, the round closes
    # without waiting for 2.
    v.clients[2].conn.send_frame(wire.QUORUM_VOTE, 1, stale.epoch,
                                 wire.encode_vote(stale.epoch, 1, 2, 1, True, 2))
    outcomes, seconds, _l = v.vote({0: (True, 2), 1: (True, 2)})
    assert outcomes == {0: False, 1: False}
    assert checkpoint.parse_ledger(v.ledger) == []
    assert max(seconds.values()) > 0.25 and v.decisions[0].members == (0, 1)


# --------------------------------------------------------------- emulation

def strip_measured(s):
    # decide_* fields are wall-clock measurements; everything else is simulated
    import dataclasses
    return dataclasses.replace(s, decide_p50_ms=0.0, decide_p99_ms=0.0, decide_total_s=0.0)


def test_emulation_is_deterministic():
    a = quorum.emulate_quorum(64, rounds=80, seed=9)
    b = quorum.emulate_quorum(64, rounds=80, seed=9)
    assert strip_measured(a) == strip_measured(b)
    c = quorum.emulate_quorum(64, rounds=80, seed=10)
    assert strip_measured(a) != strip_measured(c)


def test_emulation_stats_sane():
    s = quorum.emulate_quorum(200, rounds=120, seed=3)
    assert s.latency_p99_ms >= s.latency_p50_ms >= 0
    assert s.decide_p99_ms >= s.decide_p50_ms >= 0
    assert 0 < s.mean_healthy <= 200
    assert s.role_changes >= 1
    assert "p99" in s.format()


def test_emulation_failure_free_group_stays_stable():
    s = quorum.emulate_quorum(32, rounds=60, seed=1, fail_rate=0.0)
    assert s.role_changes == 1  # only the initial assembly
    assert s.mean_healthy == 32.0
