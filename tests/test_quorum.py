"""Decision engine and coordinator service tests."""

import struct
import threading
import time

import pytest

from ftdp import errors, quorum, transport, wire
from ftdp.quorum import Decision, QuorumClient, QuorumCoordinator, QuorumEngine, Report


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
    assert eng.admission_gate(2) is None  # cleared once included


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

def start_coordinator(**kw):
    listener = transport.Listener()
    coord = QuorumCoordinator(listener, **kw).start()
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
        time.sleep(0.2)  # admit loop replaces and closes the stale link
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


def test_client_gives_up_on_silent_coordinator():
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    try:
        client = QuorumClient(
            transport.PeerAddress(0, 0, "127.0.0.1", listener.port),
            replica_id=0, incarnation=1, round_deadline_s=0.1, join_wait_s=0.1)
        with pytest.raises(errors.Recoverable):
            client.exchange(1, deadline_s=0.6)
        client.close()
    finally:
        router.stop()


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
