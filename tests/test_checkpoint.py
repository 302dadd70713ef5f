"""Snapshot service, persistent checkpoint, and loader ledger tests."""

import json
import os
import struct
import threading
import time

import numpy as np
import pytest

from ftdp import checkpoint, errors, transport, wire
from ftdp.checkpoint import (
    LoaderLedger,
    SnapshotStore,
    SnapshotUnavailable,
    fetch_shard,
    find_latest,
    parse_ledger,
    pick_donor,
    read_shard,
    restore_cursors,
    validate_exactly_once,
    write_manifest,
    write_shard,
)


# --------------------------------------------------------------- snapshots

def test_snapshot_retention_is_one():
    st = SnapshotStore()
    assert st.step is None
    st.capture(3, b"ppp", b"mmm")
    assert st.get(3) == (b"ppp", b"mmm")
    st.capture(4, b"qqqq", b"nn")
    assert st.step == 4
    with pytest.raises(SnapshotUnavailable) as ei:
        st.get(3)
    assert ei.value.available == 4


def test_fetch_roundtrip_over_sockets():
    store = SnapshotStore()
    params = np.arange(10, dtype=np.float32).tobytes()
    momentum = np.ones(5, dtype=np.float32).tobytes()
    store.capture(7, params, momentum)
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    stop = threading.Event()
    server = threading.Thread(target=checkpoint.serve_fetches,
                              args=(router, store, stop), daemon=True)
    server.start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    try:
        got_p, got_m = fetch_shard(addr, 7, rank=0, replica_id=3, incarnation=1, shard_len=10)
        assert got_p == params and got_m == momentum

        with pytest.raises(SnapshotUnavailable) as ei:
            fetch_shard(addr, 6, rank=0, replica_id=3, incarnation=1, shard_len=10)
        assert ei.value.available == 7  # donor moved on; catch up next step
    finally:
        stop.set()
        router.stop()
        server.join(timeout=2.0)


def test_fetch_from_empty_store_reports_nothing_available():
    store = SnapshotStore()
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    stop = threading.Event()
    threading.Thread(target=checkpoint.serve_fetches,
                     args=(router, store, stop), daemon=True).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    try:
        with pytest.raises(SnapshotUnavailable) as ei:
            fetch_shard(addr, 1, rank=2, replica_id=1, incarnation=1, shard_len=10)
        assert ei.value.available is None
    finally:
        stop.set()
        router.stop()


def test_fetch_from_dead_donor_is_recoverable():
    listener = transport.Listener()
    port = listener.port
    listener.close()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", port)
    with pytest.raises(errors.Recoverable):
        fetch_shard(addr, 1, rank=0, replica_id=1, incarnation=1, shard_len=10, timeout_s=0.4)


def test_pick_donor_spreads_ranks_and_rotates_on_retry():
    healthy = [0, 1, 2]
    assert [pick_donor(healthy, 3, r) for r in range(4)] == [0, 1, 2, 0]
    assert pick_donor(healthy, 3, rank=0, attempt=1) == 1
    assert pick_donor([0, 3], 3, rank=1) == 0  # never pulls from itself
    with pytest.raises(errors.Recoverable):
        pick_donor([3], 3, rank=0)


# ------------------------------------------------------------- persistence

def test_shard_write_read_roundtrip(tmp_path):
    d = str(tmp_path)
    params = os.urandom(64)
    momentum = os.urandom(32)
    write_shard(d, 100, 1, params, momentum)
    assert read_shard(d, 100, 1) == (params, momentum)
    assert not [f for f in os.listdir(d) if f.endswith(".tmp")]


def test_shard_rejects_corruption(tmp_path):
    d = str(tmp_path)
    path = write_shard(d, 5, 0, b"abcd", b"ef")
    blob = bytearray(open(path, "rb").read())
    blob[0] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(errors.Fatal):
        read_shard(d, 5, 0)


def test_shard_header_must_match_request(tmp_path):
    d = str(tmp_path)
    write_shard(d, 5, 0, b"abcd", b"ef")
    os.rename(checkpoint.shard_path(d, 5, 0), checkpoint.shard_path(d, 6, 0))
    with pytest.raises(errors.Fatal):
        read_shard(d, 6, 0)


def test_find_latest_requires_complete_set(tmp_path):
    d = str(tmp_path)
    assert find_latest(d) is None
    for step in (100, 200):
        for rank in range(2):
            write_shard(d, step, rank, b"pp", b"mm")
        write_manifest(d, step, n_ranks=2, dims=(4, 8, 2), cursors={0: 6, 1: 4})
    # step 300: manifest present but a shard is missing -> not loadable
    write_shard(d, 300, 0, b"pp", b"mm")
    write_manifest(d, 300, n_ranks=2, dims=(4, 8, 2), cursors={0: 8, 1: 6})
    step, doc = find_latest(d)
    assert step == 200
    assert doc["cursors"] == {"0": 6, "1": 4}
    assert doc["dims"] == [4, 8, 2]


def test_find_latest_skips_corrupt_manifest(tmp_path):
    d = str(tmp_path)
    for rank in range(1):
        write_shard(d, 100, rank, b"pp", b"mm")
    write_manifest(d, 100, n_ranks=1, dims=(2, 2, 2), cursors={0: 2})
    with open(checkpoint.manifest_path(d, 100), "w") as fh:
        fh.write("{not json")
    assert find_latest(d) is None


# ------------------------------------------------------------------ ledger

def test_ledger_append_parse_roundtrip(tmp_path):
    path = str(tmp_path / "loader_state.txt")
    led = LoaderLedger(path)
    led.append(1, 0, 2)
    led.append(1, 1, 2)
    led.append(2, 0, 4)
    led.close()
    assert parse_ledger(path) == [(1, 0, 2), (1, 1, 2), (2, 0, 4)]


def test_ledger_tolerates_torn_tail(tmp_path):
    path = str(tmp_path / "loader_state.txt")
    with open(path, "wb") as fh:
        fh.write(b"1,0,2\n2,0,4\n3,0,")  # crash mid-append
    assert parse_ledger(path) == [(1, 0, 2), (2, 0, 4)]


def test_ledger_rejects_garbage_line(tmp_path):
    path = str(tmp_path / "loader_state.txt")
    with open(path, "wb") as fh:
        fh.write(b"1,0,2\nwat\n")
    with pytest.raises(errors.InvariantViolation):
        parse_ledger(path)


def test_ledger_missing_file_is_empty(tmp_path):
    assert parse_ledger(str(tmp_path / "nope.txt")) == []


def test_validate_exactly_once_accepts_gaps_in_steps():
    entries = [(1, 0, 2), (1, 1, 2), (2, 0, 4), (5, 1, 4), (6, 0, 6)]
    validate_exactly_once(entries, ranks_per_replica=2)


def test_validate_rejects_double_consumption():
    with pytest.raises(errors.InvariantViolation):
        validate_exactly_once([(1, 0, 2), (2, 0, 2)], 2)


def test_validate_rejects_skipped_batches():
    with pytest.raises(errors.InvariantViolation):
        validate_exactly_once([(1, 0, 2), (2, 0, 6)], 2)


def test_validate_rejects_step_replay():
    with pytest.raises(errors.InvariantViolation):
        validate_exactly_once([(2, 0, 2), (2, 0, 4)], 2)


def test_validate_honors_restored_cursors():
    validate_exactly_once([(101, 0, 52), (101, 1, 44)], 2,
                          initial_cursors={0: 50, 1: 42})
    with pytest.raises(errors.InvariantViolation):
        validate_exactly_once([(101, 0, 52)], 2, initial_cursors={0: 8})


def test_restore_cursors_cut_at_checkpoint_step(tmp_path):
    path = str(tmp_path / "loader_state.txt")
    led = LoaderLedger(path)
    for step in range(1, 8):
        led.append(step, 0, step * 2)
        if step != 4:
            led.append(step, 1, len([s for s in range(1, step + 1) if s != 4]) * 2)
    led.close()
    cur = restore_cursors(path, ckpt_step=5, num_replicas=3)
    assert cur[0] == 10
    assert cur[1] == 8  # replica 1 missed step 4; 4 commits by step 5
    assert cur[2] == 0  # never wrote a line


def test_fetch_rejects_oversized_response_at_once():
    """A donor whose response claims more than the shard asked for is Fatal
    as soon as the length prefix arrives, not after the fetch deadline."""
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)

    def rogue_donor():
        _hello, conn = router.take(wire.HELLO_FETCH, timeout=5.0)
        conn.recv_frame(timeout=5.0)
        conn.sock.sendall(struct.pack("<I", 512 * 1024 * 1024))

    donor = threading.Thread(target=rogue_donor, daemon=True)
    donor.start()
    try:
        t0 = time.monotonic()
        with pytest.raises(errors.Fatal) as ei:
            fetch_shard(addr, 1, rank=0, replica_id=1, incarnation=1, shard_len=10,
                        timeout_s=4.0)
        assert ei.value.reason == errors.PROTOCOL_VIOLATION
        assert time.monotonic() - t0 < 2.0
    finally:
        donor.join(timeout=5.0)
        router.stop()


def test_fetch_server_drops_oversized_request_at_once():
    """A requester whose request claims more than a FETCH_STATE_REQ's length
    is dropped as soon as the length prefix arrives, not after the server's
    read deadline."""
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener).start()
    stop = threading.Event()
    threading.Thread(target=checkpoint.serve_fetches,
                     args=(router, SnapshotStore(), stop), daemon=True).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    conn = transport.connect(addr, wire.HELLO_FETCH, (1, 0, 1, 0))
    try:
        conn.sock.sendall(struct.pack("<I", 512 * 1024 * 1024))
        t0 = time.monotonic()
        with pytest.raises(errors.Recoverable) as ei:
            conn.recv_frame(timeout=4.0)
        assert ei.value.reason == errors.PEER_RESET
        assert time.monotonic() - t0 < 2.0
    finally:
        conn.close()
        stop.set()
        router.stop()
