"""Transport tests: framing over real sockets, timeouts, fault shim."""

import socket
import struct
import threading
import time

import pytest

from ftdp import transport, wire
from ftdp.errors import ConfigError, Recoverable, PEER_DOWN, PEER_RESET, TIMEOUT


def make_pair(plan=None, purpose=wire.HELLO_RING):
    """Loopback connection pair via a router."""
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    dialer = transport.connect(addr, purpose, (1, 0, 0, 0), plan=plan)
    hello, accepted = router.take(purpose, timeout=2.0)
    assert hello.replica_id == 1
    return dialer, accepted, router


def test_echo_roundtrip_1mib():
    a, b, router = make_pair()
    try:
        payload = bytes(range(256)) * 4096  # 1 MiB
        a.send_frame(wire.CHUNK_DATA, step=3, seq=9, payload=payload)
        frame = b.recv_frame(timeout=5.0)
        assert frame.msg_type == wire.CHUNK_DATA
        assert frame.step == 3 and frame.seq == 9
        assert frame.payload == payload
        b.send_frame(wire.CHUNK_ACK, step=3, seq=9, payload=payload[:20])
        back = a.recv_frame(timeout=5.0)
        assert back.payload == payload[:20]
    finally:
        a.close()
        b.close()
        router.stop()


def test_many_frames_in_order():
    a, b, router = make_pair()
    try:
        for i in range(50):
            a.send_frame(wire.HEARTBEAT, step=i, seq=i, payload=bytes([i]))
        for i in range(50):
            frame = b.recv_frame(timeout=2.0)
            assert frame.step == i and frame.payload == bytes([i])
    finally:
        a.close()
        b.close()
        router.stop()


def test_recv_timeout_is_recoverable():
    a, b, router = make_pair()
    try:
        t0 = time.monotonic()
        with pytest.raises(Recoverable) as ei:
            b.recv_frame(timeout=0.2)
        assert ei.value.reason == TIMEOUT
        assert time.monotonic() - t0 < 2.0
    finally:
        a.close()
        b.close()
        router.stop()


def test_recv_timeout_midframe_keeps_stream_intact():
    a, b, router = make_pair()
    try:
        data = wire.encode_frame(wire.CHUNK_DATA, 7, 1, b"late body")
        a.sock.sendall(data[:6])  # length prefix + first header bytes
        with pytest.raises(Recoverable) as ei:
            b.recv_frame(timeout=0.2)  # deadline lands mid-frame
        assert ei.value.reason == TIMEOUT
        a.sock.sendall(data[6:])
        frame = b.recv_frame(timeout=1.0)
        assert frame.msg_type == wire.CHUNK_DATA
        assert frame.step == 7 and frame.payload == b"late body"
        # follow-up traffic still parses on frame boundaries
        a.send_frame(wire.HEARTBEAT, step=9)
        assert b.recv_frame(timeout=1.0).step == 9
    finally:
        a.close()
        b.close()
        router.stop()


def test_recv_timeout_inside_length_prefix_keeps_stream_intact():
    a, b, router = make_pair()
    try:
        data = wire.encode_frame(wire.CHUNK_ACK, 2, 5, b"xy")
        a.sock.sendall(data[:2])
        with pytest.raises(Recoverable) as ei:
            b.recv_frame(timeout=0.2)
        assert ei.value.reason == TIMEOUT
        a.sock.sendall(data[2:])
        frame = b.recv_frame(timeout=1.0)
        assert frame.msg_type == wire.CHUNK_ACK and frame.seq == 5
    finally:
        a.close()
        b.close()
        router.stop()


def test_peer_close_is_peer_reset():
    a, b, router = make_pair()
    try:
        a.close()
        with pytest.raises(Recoverable) as ei:
            b.recv_frame(timeout=1.0)
        assert ei.value.reason == PEER_RESET
    finally:
        b.close()
        router.stop()


def test_connect_to_dead_endpoint_is_peer_down():
    listener = transport.Listener()
    port = listener.port
    listener.close()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", port)
    t0 = time.monotonic()
    with pytest.raises(Recoverable) as ei:
        transport.connect(addr, wire.HELLO_RING, (1, 0, 0, 0), deadline_s=0.4)
    assert ei.value.reason == PEER_DOWN
    assert 0.3 < time.monotonic() - t0 < 3.0


def test_connect_retries_until_listener_appears():
    # peer restarts mid-handshake: late listener still wins within deadline
    probe = transport.Listener()
    port = probe.port
    probe.close()
    result = {}

    def dial():
        addr = transport.PeerAddress(0, 0, "127.0.0.1", port)
        try:
            result["conn"] = transport.connect(addr, wire.HELLO_CTRL, (2, 1, 0, 0), deadline_s=3.0)
        except Exception as exc:  # pragma: no cover
            result["err"] = exc

    th = threading.Thread(target=dial)
    th.start()
    time.sleep(0.3)
    listener = transport.Listener(port=port)
    router = transport.ConnectionRouter(listener).start()
    hello, conn = router.take(wire.HELLO_CTRL, timeout=3.0)
    th.join(timeout=3.0)
    assert "conn" in result
    assert hello.replica_id == 2 and hello.rank_id == 1
    result["conn"].close()
    conn.close()
    router.stop()


def test_router_routes_by_purpose_and_predicate():
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    c1 = transport.connect(addr, wire.HELLO_RING, (1, 0, 0, 7))
    c2 = transport.connect(addr, wire.HELLO_FETCH, (2, 0, 0, 0))
    c3 = transport.connect(addr, wire.HELLO_RING, (3, 0, 0, 8))
    hello, conn = router.take(wire.HELLO_RING, pred=lambda h: h.aux == 8, timeout=2.0)
    assert hello.replica_id == 3
    hello, _ = router.take(wire.HELLO_FETCH, timeout=2.0)
    assert hello.replica_id == 2
    hello, _ = router.take(wire.HELLO_RING, timeout=2.0)
    assert hello.replica_id == 1
    for c in (c1, c2, c3, conn):
        c.close()
    router.stop()


def test_router_discard_closes_stale():
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    stale = transport.connect(addr, wire.HELLO_RING, (1, 0, 0, 3))
    fresh = transport.connect(addr, wire.HELLO_RING, (1, 0, 0, 5))
    hello, conn = router.take(
        wire.HELLO_RING, pred=lambda h: h.aux == 5, timeout=2.0,
        discard=lambda h: h.aux < 5)
    assert hello.aux == 5
    # the stale dialer sees its connection die
    with pytest.raises(Recoverable):
        stale.recv_frame(timeout=0.5)
    for c in (stale, fresh, conn):
        c.close()
    router.stop()


def test_router_drops_oversized_hello_at_once():
    """A dialer whose hello claims more than a hello's length is dropped as
    soon as the length prefix arrives, not after the greeting deadline."""
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    conn = transport.Connection(socket.create_connection(("127.0.0.1", listener.port)))
    try:
        conn.sock.sendall(struct.pack("<I", 512 * 1024 * 1024))
        t0 = time.monotonic()
        with pytest.raises(Recoverable) as ei:
            conn.recv_frame(timeout=4.0)
        assert ei.value.reason == PEER_RESET
        assert time.monotonic() - t0 < 2.0
    finally:
        conn.close()
        router.stop()


# -- fault shim -------------------------------------------------------------

def active_plan(rule, self_replica=0):
    plan = transport.FaultPlan([rule], self_replica=self_replica)
    plan.observe(target_step=rule.at_step, epoch=10)
    return plan


def test_blackhole_swallows_sends_and_starves_recv():
    rule = transport.FaultRule(replica_id=0, at_step=1)
    plan = transport.FaultPlan([rule], self_replica=0)
    a, b, router = make_pair(plan=plan)
    plan.observe(target_step=1, epoch=10)
    try:
        a.send_frame(wire.CHUNK_DATA, payload=b"gone")
        with pytest.raises(Recoverable) as ei:
            b.recv_frame(timeout=0.3)  # b has no plan; nothing arrives
        assert ei.value.reason == TIMEOUT
    finally:
        a.close()
        b.close()
        router.stop()


def test_blackhole_stalls_connect_to_peer_down():
    rule = transport.FaultRule(replica_id=5, at_step=1)
    plan = active_plan(rule, self_replica=1)
    listener = transport.Listener()
    addr = transport.PeerAddress(5, 0, "127.0.0.1", listener.port)
    with pytest.raises(Recoverable) as ei:
        transport.connect(addr, wire.HELLO_RING, (1, 0, 0, 0), deadline_s=0.3, plan=plan)
    assert ei.value.reason == PEER_DOWN
    listener.close()


def test_rules_expire_after_duration_epochs():
    rule = transport.FaultRule(replica_id=0, at_step=5, duration_steps=2)
    plan = transport.FaultPlan([rule], self_replica=0)
    plan.observe(target_step=4, epoch=3)
    assert plan.effects(0) == []          # window not entered
    plan.observe(target_step=5, epoch=4)
    assert len(plan.effects(0)) == 1      # active at epochs 4,5
    plan.observe(target_step=5, epoch=5)
    assert len(plan.effects(0)) == 1
    plan.observe(target_step=5, epoch=6)  # expired even though step is stuck
    assert plan.effects(0) == []


def test_control_plane_exempt_from_faults():
    rule = transport.FaultRule(replica_id=0, at_step=1)
    plan = active_plan(rule)
    a, b, router = make_pair(plan=plan, purpose=wire.HELLO_CTRL)
    try:
        a.send_frame(wire.PREPARE, payload=b"")
        assert b.recv_frame(timeout=1.0).msg_type == wire.PREPARE
    finally:
        a.close()
        b.close()
        router.stop()


def test_fault_rule_validation():
    with pytest.raises(ConfigError):
        transport.FaultRule(replica_id=0, at_step=1, duration_steps=0)


def test_chunk_data_lands_in_place_and_stream_continues():
    a, b, router = make_pair()
    try:
        data = bytes(range(256)) * 4096  # 1 MiB, most of it read straight into dest
        a.send_frame(wire.CHUNK_DATA, 1, 0, wire.encode_chunk(3, 0, 1, 2, data))
        a.send_frame(wire.HEARTBEAT, step=9)
        dest = bytearray(len(data))
        assert b.recv_chunk_into(memoryview(dest), 3, (0, 1, 2), len(data), timeout=5.0)
        assert dest == data
        assert b.recv_frame(timeout=1.0).step == 9
    finally:
        a.close()
        b.close()
        router.stop()


def test_recv_timeout_inside_chunk_data_closes_connection():
    a, b, router = make_pair()
    try:
        frame = wire.encode_frame(wire.CHUNK_DATA, 1, 0, wire.encode_chunk(3, 0, 0, 0, bytes(64)))
        a.sock.sendall(frame[:wire.CHUNK_FRAME.size + 10])  # header and 10 data bytes
        with pytest.raises(Recoverable) as ei:
            b.recv_chunk_into(memoryview(bytearray(64)), 3, (0, 0, 0), 64, timeout=0.2)
        assert ei.value.reason == TIMEOUT
        assert b.closed  # the stream is mid-frame; it must never be read again
        with pytest.raises(Recoverable) as ei:
            b.recv_frame(timeout=0.2)
        assert ei.value.reason == PEER_RESET
    finally:
        a.close()
        b.close()
        router.stop()


def test_recv_timeout_inside_chunk_header_keeps_stream_intact():
    a, b, router = make_pair()
    try:
        frame = wire.encode_frame(wire.CHUNK_DATA, 1, 0, wire.encode_chunk(3, 0, 0, 0, b"abcd"))
        a.sock.sendall(frame[:30])
        with pytest.raises(Recoverable) as ei:
            b.recv_chunk_into(memoryview(bytearray(4)), 3, (0, 0, 0), 4, timeout=0.2)
        assert ei.value.reason == TIMEOUT
        assert not b.closed
        a.sock.sendall(frame[30:])
        dest = bytearray(4)
        assert b.recv_chunk_into(memoryview(dest), 3, (0, 0, 0), 4, timeout=1.0)
        assert dest == b"abcd"
    finally:
        a.close()
        b.close()
        router.stop()
