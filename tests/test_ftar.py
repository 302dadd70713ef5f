"""Ring all-reduce tests.

The reference result is computed by oracle_reduce below: for every segment,
a plain float32 left-fold of the member arrays in ascending ring order
starting at the segment's owner. That is the full determinism contract --
every member must produce exactly those bits. The oracle recomputes the
partition/segment geometry from the config on its own; geometry-specific
guarantees (size cap, balance) are pinned separately in the plan tests.
"""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from ftdp import errors, ftar, transport, wire


def oracle_reduce(arrays, chunk_bytes, max_in_flight):
    n = len(arrays)
    total = arrays[0].size
    out = np.empty(total, dtype=np.float32)
    cap = max(1, (chunk_bytes * max_in_flight * n) // 4)
    n_parts = -(-total // cap) if total else 1
    p_base, p_rem = divmod(total, n_parts)
    off = 0
    for p in range(n_parts):
        p_len = p_base + (1 if p < p_rem else 0)
        s_base, s_rem = divmod(p_len, n)
        s_off = off
        for owner in range(n):
            s_len = s_base + (1 if owner < s_rem else 0)
            acc = arrays[owner][s_off:s_off + s_len].copy()
            for k in range(1, n):
                acc = acc + arrays[(owner + k) % n][s_off:s_off + s_len]
            out[s_off:s_off + s_len] = acc
            s_off += s_len
        off += p_len
    return out


MIB = 1024 * 1024


# ---------------------------------------------------------------- geometry

def test_partition_plan_large_message_splits_at_cap():
    cfg = ftar.PipelineConfig(chunk_bytes=8 * MIB, max_in_flight=4)
    plan = ftar.build_partition_plan(256 * MIB, cfg, 4)
    assert plan.partition_bytes() == [(0, 128 * MIB), (128 * MIB, 128 * MIB)]


def test_partition_plan_small_message_single_partition():
    cfg = ftar.PipelineConfig()
    plan = ftar.build_partition_plan(100, cfg, 4)
    assert plan.partitions == [(0, 25)]


def test_partition_plan_properties():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        chunk = int(rng.integers(1, 65)) * 4
        c = int(rng.integers(1, 6))
        total_elems = int(rng.integers(0, 5000))
        cfg = ftar.PipelineConfig(chunk_bytes=chunk, max_in_flight=c)
        plan = ftar.build_partition_plan(total_elems * 4, cfg, n)
        cap_bytes = chunk * c * n
        off = 0
        for p_off, p_len in plan.partitions:
            assert p_off == off
            assert p_len * 4 <= max(cap_bytes, 4)
            off += p_len
        assert off == total_elems
        lengths = [ln for _, ln in plan.partitions]
        assert max(lengths) - min(lengths) <= 1


def test_partition_plan_rejects_misaligned_buffer():
    with pytest.raises(errors.Fatal):
        ftar.build_partition_plan(102, ftar.PipelineConfig(), 2)


def test_segment_bounds_cover_partition():
    for part, n in [(10, 4), (3, 5), (0, 3), (7, 1), (8, 8)]:
        segs = ftar.segment_bounds(part, n)
        assert len(segs) == n
        assert sum(ln for _, ln in segs) == part
        off = 0
        for s_off, s_len in segs:
            assert s_off == off
            off += s_len


def test_iter_chunks_cover_segment():
    assert ftar.iter_chunks(10, 4) == [(0, 0, 4), (1, 4, 4), (2, 8, 2)]
    assert ftar.iter_chunks(0, 4) == []
    assert ftar.iter_chunks(3, 8) == [(0, 0, 3)]


# ---------------------------------------------------------------- harness

class Ring:
    """n single-rank members wired through real loopback sockets."""

    def __init__(self, n):
        self.n = n
        self.listeners = [transport.Listener() for _ in range(n)]
        self.routers = [transport.ConnectionRouter(ls).start() for ls in self.listeners]
        self.groups = [ftar.RingGroup(rid, 0, self.routers[rid]) for rid in range(n)]
        self.addrs = {
            rid: transport.PeerAddress(rid, 0, "127.0.0.1", self.listeners[rid].port)
            for rid in range(n)
        }
        self.gen = 0

    def reconfig(self, members=None, skip=()):
        members = sorted(members if members is not None else range(self.n))
        self.gen += 1
        addrs = {rid: self.addrs[rid] for rid in members}
        errs = {}

        def go(rid):
            try:
                self.groups[rid].reconfig(addrs, self.gen, deadline_s=5.0)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errs[rid] = exc

        threads = [threading.Thread(target=go, args=(rid,))
                   for rid in members if rid not in skip]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads), "reconfig deadlocked"
        if errs:
            raise next(iter(errs.values()))
        return members

    def all_reduce(self, bufs, step, cfg, participants):
        results = {}

        def go(rid):
            try:
                results[rid] = ftar.ftar_all_reduce(self.groups[rid], bufs[rid], step, cfg)
            except Exception as exc:  # noqa: BLE001 - asserted by callers
                results[rid] = exc

        threads = [threading.Thread(target=go, args=(rid,)) for rid in participants]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads), "all-reduce hung"
        return results

    def close(self):
        for g in self.groups:
            g.close_links()
        for r in self.routers:
            r.stop()


@pytest.fixture
def ring4():
    r = Ring(4)
    yield r
    r.close()


def run_case(ring, members, arrays, step, cfg):
    bufs = {rid: arr.copy() for rid, arr in zip(members, arrays)}
    results = ring.all_reduce(bufs, step, cfg, members)
    for rid, res in results.items():
        if isinstance(res, Exception):
            raise res
    expect = oracle_reduce(arrays, cfg.chunk_bytes, cfg.max_in_flight)
    for rid in members:
        np.testing.assert_array_equal(results[rid], expect)
        assert results[rid] is bufs[rid]  # reduced in place
    return results


# ---------------------------------------------------------------- behavior

def test_hand_case_four_members(ring4):
    ring4.reconfig()
    cfg = ftar.PipelineConfig(chunk_bytes=8, max_in_flight=2, per_chunk_timeout_s=5.0)
    arrays = [np.full(8, float(i), dtype=np.float32) for i in range(4)]
    bufs = {rid: arrays[rid].copy() for rid in range(4)}
    results = ring4.all_reduce(bufs, 1, cfg, range(4))
    for rid in range(4):
        np.testing.assert_array_equal(results[rid], np.full(8, 6.0, dtype=np.float32))


def test_hand_case_multi_partition(ring4):
    # cap = 4*1*4 = 16 bytes -> two partitions of 4 elems, 1-elem segments
    ring4.reconfig()
    cfg = ftar.PipelineConfig(chunk_bytes=4, max_in_flight=1, per_chunk_timeout_s=5.0)
    arrays = [np.arange(8, dtype=np.float32) * (i + 1) for i in range(4)]
    run_case(ring4, list(range(4)), arrays, 1, cfg)


def test_single_member_identity():
    r = Ring(1)
    try:
        r.reconfig()
        buf = np.arange(5, dtype=np.float32)
        out = ftar.ftar_all_reduce(r.groups[0], buf, 1, ftar.PipelineConfig())
        np.testing.assert_array_equal(out, np.arange(5, dtype=np.float32))
        assert r.groups[0].right is None and r.groups[0].left is None
    finally:
        r.close()


def test_empty_buffer(ring4):
    ring4.reconfig()
    run_case(ring4, list(range(4)),
             [np.zeros(0, dtype=np.float32) for _ in range(4)],
             1, ftar.PipelineConfig())


def test_randomized_against_oracle():
    rng = np.random.default_rng(42)
    for n in (2, 3, 5):
        ring = Ring(n)
        try:
            ring.reconfig()
            for case in range(12):
                if case % 3 == 0:
                    cfg = ftar.PipelineConfig(chunk_bytes=28, max_in_flight=2,
                                              per_chunk_timeout_s=5.0)
                else:
                    cfg = ftar.PipelineConfig(chunk_bytes=4096, max_in_flight=4,
                                              per_chunk_timeout_s=5.0)
                length = int(rng.integers(0, 2049)) if case else int(rng.integers(0, n))
                scale = 10.0 ** rng.integers(-3, 4)
                arrays = [
                    (rng.standard_normal(length) * scale).astype(np.float32)
                    for _ in range(n)
                ]
                run_case(ring, list(range(n)), arrays, case + 1, cfg)
        finally:
            ring.close()


def test_inflight_window_respected():
    ring = Ring(2)
    try:
        ring.reconfig()
        cfg = ftar.PipelineConfig(chunk_bytes=64, max_in_flight=2, per_chunk_timeout_s=5.0)
        arrays = [np.ones(4096, dtype=np.float32) * (i + 1) for i in range(2)]
        run_case(ring, [0, 1], arrays, 1, cfg)
        for g in ring.groups:
            assert 0 < g.meter.max_unacked_bytes <= cfg.chunk_bytes * cfg.max_in_flight
            assert g.meter.max_unacked_chunks <= cfg.max_in_flight
            assert g.meter.unacked_bytes == 0
    finally:
        ring.close()


def test_membership_changes_and_generation_bumps(ring4):
    cfg = ftar.PipelineConfig(chunk_bytes=64, max_in_flight=2, per_chunk_timeout_s=5.0)
    rng = np.random.default_rng(3)

    def arrays(k):
        return [rng.standard_normal(37).astype(np.float32) for _ in range(k)]

    ring4.reconfig(members=[0, 1, 2])
    run_case(ring4, [0, 1, 2], arrays(3), 1, cfg)
    ring4.reconfig(members=[0, 2])  # member 1 departs
    run_case(ring4, [0, 2], arrays(2), 2, cfg)
    ring4.reconfig(members=[0, 1, 2, 3])  # 1 returns, 3 joins
    run_case(ring4, [0, 1, 2, 3], arrays(4), 3, cfg)
    assert all(ring4.groups[rid].generation == 3 for rid in range(4))


def test_reconfig_rejects_stale_generation(ring4):
    ring4.reconfig()
    with pytest.raises(errors.Fatal):
        ring4.groups[0].reconfig(ring4.addrs, ring4.gen, deadline_s=0.5)
    with pytest.raises(errors.Fatal):
        ring4.groups[0].reconfig({1: ring4.addrs[1], 2: ring4.addrs[2]},
                                 ring4.gen + 5, deadline_s=0.5)


def test_reconfig_to_singleton_closes_links(ring4):
    ring4.reconfig()
    g = ring4.groups[0]
    assert g.links_ready()
    g.reconfig({0: ring4.addrs[0]}, ring4.gen + 1)
    assert g.right is None and g.left is None and g.n == 1


def test_absent_peer_times_out_recoverably():
    ring = Ring(2)
    try:
        ring.reconfig()
        cfg = ftar.PipelineConfig(chunk_bytes=64, max_in_flight=1, per_chunk_timeout_s=0.4)
        original = np.arange(64, dtype=np.float32)
        buf = original.copy()
        results = ring.all_reduce({0: buf}, 1, cfg, [0])  # member 1 never shows up
        err = results[0]
        assert isinstance(err, errors.Recoverable)
        np.testing.assert_array_equal(buf, original)  # nothing committed
        assert not ring.groups[0].links_ready()
    finally:
        ring.close()


def test_peer_death_surfaces_as_recoverable():
    ring = Ring(2)
    try:
        ring.reconfig()
        cfg = ftar.PipelineConfig(chunk_bytes=64, max_in_flight=1, per_chunk_timeout_s=2.0)
        original = np.ones(64, dtype=np.float32)
        buf = original.copy()

        def die_soon():
            time.sleep(0.05)
            ring.groups[1].close_links()

        killer = threading.Thread(target=die_soon)
        killer.start()
        results = ring.all_reduce({0: buf}, 1, cfg, [0])
        killer.join()
        assert isinstance(results[0], errors.Recoverable)
        np.testing.assert_array_equal(buf, original)
    finally:
        ring.close()


def test_retry_after_failure_with_fresh_generation():
    ring = Ring(3)
    try:
        ring.reconfig()
        cfg = ftar.PipelineConfig(chunk_bytes=32, max_in_flight=2, per_chunk_timeout_s=0.4)
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal(50).astype(np.float32) for _ in range(3)]
        bufs = {rid: arrays[rid].copy() for rid in range(3)}
        results = ring.all_reduce(bufs, 1, cfg, [0, 1])  # member 2 stalls out
        assert all(isinstance(results[rid], errors.Recoverable) for rid in (0, 1))
        ring.groups[2].close_links()
        # regroup and retry the same step with the original inputs
        ring.reconfig()
        cfg2 = ftar.PipelineConfig(chunk_bytes=32, max_in_flight=2, per_chunk_timeout_s=5.0)
        run_case(ring, [0, 1, 2], arrays, 1, cfg2)
    finally:
        ring.close()


def test_stale_generation_frames_are_dropped():
    ring = Ring(2)
    try:
        ring.reconfig()
        ring.reconfig()  # gen 2 current; craft gen-1 stragglers
        stale_chunk = wire.encode_chunk(1, 0, 0, 0, b"\x00" * 8)
        ring.groups[1].right.send_frame(wire.CHUNK_DATA, 0, 0, stale_chunk)
        stale_ack = wire.encode_chunk_header(1, 0, 0, 0, 8)
        ring.groups[0].left.send_frame(wire.CHUNK_ACK, 0, 0, stale_ack)
        cfg = ftar.PipelineConfig(chunk_bytes=16, max_in_flight=2, per_chunk_timeout_s=5.0)
        arrays = [np.full(10, float(i + 1), dtype=np.float32) for i in range(2)]
        run_case(ring, [0, 1], arrays, 1, cfg)
    finally:
        ring.close()


def test_out_of_sequence_chunk_is_fatal():
    ring = Ring(2)
    try:
        ring.reconfig()
        rogue = wire.encode_chunk(ring.gen, 7, 0, 0, b"\x00" * 8)
        ring.groups[1].right.send_frame(wire.CHUNK_DATA, 1, 0, rogue)
        cfg = ftar.PipelineConfig(chunk_bytes=16, max_in_flight=1, per_chunk_timeout_s=1.0)
        bufs = {rid: np.ones(8, dtype=np.float32) for rid in range(2)}
        results = ring.all_reduce(bufs, 1, cfg, [0, 1])
        assert isinstance(results[0], errors.Fatal)
        assert results[0].reason == errors.PROTOCOL_VIOLATION
        assert isinstance(results[1], errors.FtdpError)
    finally:
        ring.close()


def test_unexpected_frame_type_is_fatal():
    ring = Ring(2)
    try:
        ring.reconfig()
        ring.groups[1].right.send_frame(wire.HEARTBEAT, 0, 0, b"")
        cfg = ftar.PipelineConfig(chunk_bytes=16, max_in_flight=1, per_chunk_timeout_s=1.0)
        bufs = {rid: np.ones(4, dtype=np.float32) for rid in range(2)}
        results = ring.all_reduce(bufs, 1, cfg, [0, 1])
        assert isinstance(results[0], errors.Fatal)
        assert results[0].reason == errors.PROTOCOL_VIOLATION
    finally:
        ring.close()


def test_nonfinite_payload_is_fatal_everywhere():
    for poison in (np.nan, np.inf):
        ring = Ring(2)
        try:
            ring.reconfig()
            cfg = ftar.PipelineConfig(chunk_bytes=16, max_in_flight=2, per_chunk_timeout_s=5.0)
            arrays = [np.ones(12, dtype=np.float32) for _ in range(2)]
            arrays[1][3] = poison
            originals = [a.copy() for a in arrays]
            bufs = {rid: arrays[rid].copy() for rid in range(2)}
            results = ring.all_reduce(bufs, 1, cfg, [0, 1])
            for rid in range(2):
                assert isinstance(results[rid], errors.Fatal)
                assert results[rid].reason == errors.NUMERICAL
                np.testing.assert_array_equal(bufs[rid], originals[rid])
        finally:
            ring.close()


def test_all_reduce_without_links_is_recoverable():
    ring = Ring(2)
    try:
        ring.reconfig()
        ring.groups[0].close_links()
        with pytest.raises(errors.Recoverable):
            ftar.ftar_all_reduce(ring.groups[0], np.ones(4, dtype=np.float32), 1,
                                 ftar.PipelineConfig())
    finally:
        ring.close()


def test_rejects_wrong_dtype():
    ring = Ring(1)
    try:
        ring.reconfig()
        with pytest.raises(errors.Fatal):
            ftar.ftar_all_reduce(ring.groups[0], np.ones(4, dtype=np.float64), 1,
                                 ftar.PipelineConfig())
    finally:
        ring.close()


# ---------------------------------------------------------------- data plane


def _socket_pair():
    a, b = socket.socketpair()
    return transport.Connection(a), transport.Connection(b)


def _read_exactly(conn, n, timeout=5.0):
    conn.sock.settimeout(timeout)
    out = bytearray()
    while len(out) < n:
        got = conn.sock.recv(n - len(out))
        assert got, "stream ended early"
        out += got
    return bytes(out)


@pytest.mark.parametrize("nbytes", [400, MIB])
def test_chunk_send_writes_reference_frame_bytes(nbytes):
    a, b = _socket_pair()
    cfg = ftar.PipelineConfig(chunk_bytes=nbytes, max_in_flight=1, per_chunk_timeout_s=5.0)
    sender = ftar._Sender(a, cfg, generation=6, step=11, meter=ftar.InflightMeter())
    try:
        data = np.random.default_rng(nbytes).standard_normal(nbytes // 4).astype(np.float32)
        sender.start()
        sender.q.put((2, 3, 4, data.view(np.uint8)))
        expect = wire.encode_frame(wire.CHUNK_DATA, 11, 0,
                                   wire.encode_chunk(6, 2, 3, 4, data.tobytes()))
        assert _read_exactly(b, len(expect)) == expect
    finally:
        sender.abort()
        a.close()
        b.close()


def test_ack_link_rejects_oversized_length_prefix_at_once():
    a, b = _socket_pair()
    cfg = ftar.PipelineConfig(chunk_bytes=8, max_in_flight=1, per_chunk_timeout_s=4.0)
    sender = ftar._Sender(a, cfg, generation=1, step=1, meter=ftar.InflightMeter())
    try:
        sender.start()
        sender.q.put((0, 0, 0, memoryview(bytes(8))))
        b.sock.sendall(struct.pack("<I", 512 * MIB))
        t0 = time.monotonic()
        with pytest.raises(errors.Fatal) as ei:
            sender.finish()
        assert ei.value.reason == errors.PROTOCOL_VIOLATION
        assert time.monotonic() - t0 < 2.0
    finally:
        a.close()
        b.close()


def _chunk_head(generation, part, ring_step, chunk, data_len):
    frame = wire.encode_frame(wire.CHUNK_DATA, 1, 0,
                              wire.encode_chunk(generation, part, ring_step, chunk,
                                                bytes(data_len)))
    return frame[:wire.CHUNK_FRAME.size]


@pytest.mark.parametrize("head", [
    _chunk_head(1, 0, 0, 0, 64 + 4),   # longer than chunk_bytes
    _chunk_head(1, 0, 0, 0, 12),       # in generation, not the expected length
    _chunk_head(1, 0, 1, 0, 16),       # in generation, not the expected ring step
    _chunk_head(0, 0, 0, 0, 64 + 4),   # stale, but longer than chunk_bytes
    wire.encode_frame(wire.CHUNK_DATA, 1, 0),            # no chunk header at all
    wire.encode_frame(wire.CHUNK_DATA, 1, 0, bytes(19)),  # a chunk header cut short
])
def test_bad_chunk_header_is_fatal_before_its_data(head):
    """Only the 41-byte header, or a frame too short to hold one, is ever
    written and the peer stays silent, so the all-reduce can fail at once
    only by judging the header alone."""
    ring = Ring(2)
    try:
        ring.reconfig()
        ring.groups[1].right.sock.sendall(head)
        cfg = ftar.PipelineConfig(chunk_bytes=64, max_in_flight=1, per_chunk_timeout_s=3.0)
        t0 = time.monotonic()
        results = ring.all_reduce({0: np.ones(8, dtype=np.float32)}, 1, cfg, [0])
        assert isinstance(results[0], errors.Fatal)
        assert results[0].reason == errors.PROTOCOL_VIOLATION
        assert time.monotonic() - t0 < 1.5
    finally:
        ring.close()


def test_stale_chunks_of_other_lengths_are_skipped():
    ring = Ring(2)
    try:
        ring.reconfig()
        ring.reconfig()  # gen 2 current; gen-1 stragglers of other lengths
        link = ring.groups[1].right
        for data_len in (12, 16, 4):
            link.send_frame(wire.CHUNK_DATA, 0, 0,
                            wire.encode_chunk(1, 0, 0, 0, bytes(range(data_len))))
        cfg = ftar.PipelineConfig(chunk_bytes=16, max_in_flight=2, per_chunk_timeout_s=5.0)
        rng = np.random.default_rng(5)
        arrays = [rng.standard_normal(10).astype(np.float32) for _ in range(2)]
        run_case(ring, [0, 1], arrays, 1, cfg)
    finally:
        ring.close()
