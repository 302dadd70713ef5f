"""Snapshot service, persistent checkpoint, and loader ledger tests."""

import json
import os
import struct
import sys
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


def test_snapshot_read_overlapping_an_update_is_unavailable(monkeypatch):
    """The store keeps views of the live shard. A read that its owner's
    in-place update overlaps is refused, never returned with bytes of two
    steps; a read that completes is a copy that later updates leave alone."""
    params = np.zeros(4, dtype=np.float32)
    momentum = np.zeros(4, dtype=np.float32)
    st = SnapshotStore()
    st.capture(5, params, momentum)
    fetch_body = checkpoint._FETCH_BODY

    class OwnerUpdatesMidRead:
        """Lands the owner's update after the read took its views and before
        it copies them, with half of the shard written."""

        def pack(self, *lens):
            st.invalidate()
            momentum[:] = 1.0
            return fetch_body.pack(*lens)

    monkeypatch.setattr(checkpoint, "_FETCH_BODY", OwnerUpdatesMidRead())
    with pytest.raises(SnapshotUnavailable) as ei:
        st.get(5)
    assert ei.value.available is None  # the update is still under way
    monkeypatch.undo()
    with pytest.raises(SnapshotUnavailable):
        st.get(5)  # invalidated and not yet captured again

    params[:] = 1.0
    st.capture(6, params, momentum)
    got_p, got_m = st.get(6)
    params[:] = 2.0
    ones = np.ones(4, dtype=np.float32).tobytes()
    assert got_p == ones and got_m == ones


def test_snapshot_reads_racing_in_place_updates_are_never_torn():
    """Readers race an owner that rewrites its shard in place every step;
    each read gives the whole shard of the step asked for, or is refused."""
    params = np.zeros(1 << 16, dtype=np.float32)
    momentum = np.zeros(1 << 16, dtype=np.float32)
    st = SnapshotStore()
    st.capture(0, params, momentum)
    stop = threading.Event()
    served, torn = [], []

    def owner():
        step = 0
        while not stop.is_set():
            st.invalidate()
            step += 1
            params[:] = step
            momentum[:] = step
            st.capture(step, params, momentum)
            stop.wait(0.0002)  # the shard holds still for a while each step

    def reader():
        while not stop.is_set():
            step = st.step
            try:
                got_p, got_m = st.get(step)
            except SnapshotUnavailable:
                continue
            values = np.unique(np.frombuffer(bytes(got_p) + bytes(got_m), dtype=np.float32))
            (served if values.tolist() == [step] else torn).append(step)

    threads = [threading.Thread(target=fn) for fn in (owner, reader, reader, reader)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        time.sleep(1.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=5.0)
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert served and not torn


def test_fetch_roundtrip_over_sockets():
    store = SnapshotStore()
    params = np.arange(10, dtype=np.float32).tobytes()
    momentum = np.ones(5, dtype=np.float32).tobytes()
    store.capture(7, params, momentum)
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener, [store]).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    try:
        got_p, got_m = fetch_shard(addr, 7, rank=0, replica_id=3, incarnation=1, shard_len=10)
        assert got_p == params and got_m == momentum

        with pytest.raises(SnapshotUnavailable) as ei:
            fetch_shard(addr, 6, rank=0, replica_id=3, incarnation=1, shard_len=10)
        assert ei.value.available == 7  # donor moved on; catch up next step
    finally:
        router.stop()


def test_fetch_from_empty_store_reports_nothing_available():
    stores = [SnapshotStore() for _ in range(3)]
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener, stores).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    try:
        with pytest.raises(SnapshotUnavailable) as ei:
            fetch_shard(addr, 1, rank=2, replica_id=1, incarnation=1, shard_len=10)
        assert ei.value.available is None
    finally:
        router.stop()


def test_fetches_are_served_from_each_ranks_store():
    """Every rank's fetch gets its own rank's shard, and the response names
    that rank, so fetch_shard's rank check compares the donor's answer."""
    stores = [SnapshotStore() for _ in range(2)]
    shards = [np.full(4, r + 1, dtype=np.float32).tobytes() for r in range(2)]
    for store, shard in zip(stores, shards):
        store.capture(5, shard, shard)
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener, stores).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    try:
        for rank in (1, 0):
            got_p, got_m = fetch_shard(addr, 5, rank=rank, replica_id=3, incarnation=0,
                                       shard_len=4)
            assert got_p == shards[rank] and got_m == shards[rank]
    finally:
        router.stop()


def _refused_fetch(stores, hello_rank, request_rank):
    """Dial a fetch router with a hello for hello_rank and a request for
    request_rank; return how the dialer's read ended and after how long."""
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener, stores).start()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    conn = transport.connect(addr, wire.HELLO_FETCH, (1, hello_rank, 1, 0))
    try:
        conn.send_frame(wire.FETCH_STATE_REQ, 5, 0, wire.encode_fetch_req(5, request_rank))
        t0 = time.monotonic()
        with pytest.raises(errors.Recoverable) as ei:
            conn.recv_frame(timeout=4.0)
        return ei.value.reason, time.monotonic() - t0
    finally:
        conn.close()
        router.stop()


def test_fetch_for_a_rank_not_held_is_closed_at_once():
    stores = [SnapshotStore() for _ in range(2)]
    reason, waited = _refused_fetch(stores, hello_rank=7, request_rank=7)
    assert reason == errors.PEER_RESET
    assert waited < 2.0


def test_fetch_request_for_another_rank_than_its_hello_gets_no_shard():
    stores = [SnapshotStore() for _ in range(2)]
    for store in stores:
        store.capture(5, b"\0" * 16, b"\0" * 16)
    reason, waited = _refused_fetch(stores, hello_rank=0, request_rank=1)
    assert reason == errors.PEER_RESET
    assert waited < 2.0


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


def test_shard_written_from_array_views_matches_bytes(tmp_path):
    state = np.arange(12, dtype=np.float32)
    views, copies = str(tmp_path / "views"), str(tmp_path / "copies")
    write_shard(views, 4, 1, state[2:7], state[7:])
    write_shard(copies, 4, 1, state[2:7].tobytes(), state[7:].tobytes())
    with open(checkpoint.shard_path(views, 4, 1), "rb") as fh:
        got = fh.read()
    with open(checkpoint.shard_path(copies, 4, 1), "rb") as fh:
        assert got == fh.read()
    assert read_shard(views, 4, 1) == (state[2:7].tobytes(), state[7:].tobytes())


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
    led.append(1, {0: 2, 1: 2})
    led.append(2, {0: 4})
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
        cursors = {0: step * 2}
        if step != 4:
            cursors[1] = len([s for s in range(1, step + 1) if s != 4]) * 2
        led.append(step, cursors)
    led.close()
    cur = restore_cursors(path, ckpt_step=5, num_replicas=3)
    assert cur[0] == 10
    assert cur[1] == 8  # replica 1 missed step 4; 4 commits by step 5
    assert cur[2] == 0  # never wrote a line


def test_fetch_rejects_oversized_response_at_once():
    """A donor whose response claims more than the shard asked for is Fatal
    as soon as the length prefix arrives, not after the fetch deadline."""
    listener = transport.Listener()
    addr = transport.PeerAddress(0, 0, "127.0.0.1", listener.port)
    accepted = []

    def rogue_donor():
        conn = transport.Connection(listener.sock.accept()[0])
        accepted.append(conn)
        conn.recv_frame(timeout=5.0)  # the hello
        conn.recv_frame(timeout=5.0)  # the request
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
        for conn in accepted:
            conn.close()
        listener.close()


def test_fetch_server_drops_oversized_request_at_once():
    """A requester whose request claims more than a FETCH_STATE_REQ's length
    is dropped as soon as the length prefix arrives, not after the server's
    read deadline."""
    listener = transport.Listener()
    router = transport.ConnectionRouter(listener, [SnapshotStore()]).start()
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
        router.stop()
