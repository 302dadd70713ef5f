"""Fault-tolerant ring all-reduce over stream sockets.

The reduction runs as ReduceScatter then AllGather, each N-1 ring steps.
Large buffers are split into partitions of at most chunk_bytes *
max_in_flight * N bytes; within a partition each ring step moves one
segment, pipelined as chunks of at most chunk_bytes with a bounded
unacknowledged window per peer link.

Failure semantics: anything that smells of a lost or slow peer surfaces as
Recoverable and leaves the caller's buffer with only whole partitions
committed (reduction happens in a staging copy). The caller regroups via
the quorum service and retries with fresh membership and a new generation;
chunk frames carry the generation so a straggler from an abandoned attempt
is discarded rather than corrupting the new one. Garbage frames and
non-finite payloads are Fatal: better to crash one replica than to commit
a poisoned update everywhere.

Reduction order is fixed (ascending replica id around the ring), so every
member computes bit-identical float32 sums.
"""

from __future__ import annotations

import logging
import queue
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ftdp import kernels, transport, wire
from ftdp.errors import (
    Fatal,
    FtdpError,
    INTERNAL_INVARIANT,
    NUMERICAL,
    PEER_RESET,
    PROTOCOL_VIOLATION,
    Recoverable,
    TIMEOUT,
)

log = logging.getLogger(__name__)

ELEM = 4  # float32 bytes; all payloads are float32 vectors


@dataclass
class PipelineConfig:
    chunk_bytes: int = 8 * 1024 * 1024
    max_in_flight: int = 4
    per_chunk_timeout_s: float = 5.0

    def __post_init__(self):
        if self.chunk_bytes < ELEM:
            raise Fatal(INTERNAL_INVARIANT, "chunk_bytes must be >= 4")
        if self.max_in_flight < 1:
            raise Fatal(INTERNAL_INVARIANT, "max_in_flight must be >= 1")
        if self.per_chunk_timeout_s <= 0:
            raise Fatal(INTERNAL_INVARIANT, "per_chunk_timeout_s must be > 0")

    @property
    def chunk_elems(self) -> int:
        return self.chunk_bytes // ELEM


@dataclass
class PartitionPlan:
    """Partition table in element units (buffers are float32)."""

    total_elems: int
    n_members: int
    partitions: list[tuple[int, int]]  # (offset_elems, length_elems)

    def partition_bytes(self) -> list[tuple[int, int]]:
        return [(off * ELEM, ln * ELEM) for off, ln in self.partitions]


def build_partition_plan(total_bytes: int, cfg: PipelineConfig, n_members: int) -> PartitionPlan:
    """Split a message so each partition fits the pipeline working set
    (chunk_bytes * max_in_flight * n_members)."""
    if total_bytes % ELEM:
        raise Fatal(INTERNAL_INVARIANT, f"buffer not float32-aligned: {total_bytes}")
    if n_members < 1:
        raise Fatal(INTERNAL_INVARIANT, "n_members must be >= 1")
    total_elems = total_bytes // ELEM
    if total_elems == 0:
        return PartitionPlan(0, n_members, [(0, 0)])
    cap_elems = max(1, (cfg.chunk_bytes * cfg.max_in_flight * n_members) // ELEM)
    n_parts = -(-total_elems // cap_elems)  # ceil
    base, rem = divmod(total_elems, n_parts)
    parts = []
    off = 0
    for i in range(n_parts):
        ln = base + (1 if i < rem else 0)
        parts.append((off, ln))
        off += ln
    return PartitionPlan(total_elems, n_members, parts)


def segment_bounds(part_elems: int, n: int) -> list[tuple[int, int]]:
    """N contiguous segments of a partition; lengths differ by at most 1.
    Short partitions may yield empty segments, which simply move nothing."""
    base, rem = divmod(part_elems, n)
    out = []
    off = 0
    for j in range(n):
        ln = base + (1 if j < rem else 0)
        out.append((off, ln))
        off += ln
    return out


def iter_chunks(seg_len: int, chunk_elems: int) -> list[tuple[int, int, int]]:
    """(chunk_idx, offset_elems within segment, length_elems) tuples."""
    out = []
    off = 0
    idx = 0
    while off < seg_len:
        ln = min(chunk_elems, seg_len - off)
        out.append((idx, off, ln))
        off += ln
        idx += 1
    return out


class InflightMeter:
    """Tracks unacknowledged bytes on the send link; the tests assert the
    window never exceeds chunk_bytes * max_in_flight."""

    def __init__(self):
        self.unacked_bytes = 0
        self.max_unacked_bytes = 0
        self.max_unacked_chunks = 0
        self._chunks = 0

    def sent(self, nbytes: int) -> None:
        self.unacked_bytes += nbytes
        self._chunks += 1
        self.max_unacked_bytes = max(self.max_unacked_bytes, self.unacked_bytes)
        self.max_unacked_chunks = max(self.max_unacked_chunks, self._chunks)

    def acked(self, nbytes: int) -> None:
        self.unacked_bytes -= nbytes
        self._chunks -= 1


class RingGroup:
    """This rank's ring across replicas: one dialed connection to the right
    neighbor, one accepted from the left. Membership and generation are
    assigned by the quorum decision; generations strictly increase."""

    def __init__(self, self_replica: int, rank: int, router: transport.ConnectionRouter,
                 plan: transport.FaultPlan | None = None, incarnation: int = 0):
        self.self_replica = self_replica
        self.rank = rank
        self.router = router
        self.plan = plan
        self.incarnation = incarnation
        self.generation = 0
        self.members: list[int] = [self_replica]
        self.right: transport.Connection | None = None
        self.left: transport.Connection | None = None
        self.meter = InflightMeter()

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.members.index(self.self_replica)

    def reconfig(self, addrs: dict[int, transport.PeerAddress], generation: int,
                 deadline_s: float = transport.DEFAULT_TIMEOUT_S) -> None:
        """Tear down the old ring and connect the new one.

        addrs maps member replica ids to this rank's endpoint at each of
        them; it must include self. The caller must hold no in-flight
        all-reduce. Unreachable members surface as Recoverable(peer_down).
        """
        if generation <= self.generation:
            raise Fatal(INTERNAL_INVARIANT,
                        f"generation must increase: {generation} <= {self.generation}")
        if self.self_replica not in addrs:
            raise Fatal(INTERNAL_INVARIANT, "reconfig membership must include self")
        self.close_links()
        self.members = sorted(addrs)
        self.generation = generation
        if self.n == 1:
            return
        deadline = time.monotonic() + deadline_s
        i = self.index
        right_id = self.members[(i + 1) % self.n]
        left_id = self.members[(i - 1) % self.n]
        self.right = transport.connect(
            addrs[right_id], wire.HELLO_RING,
            (self.self_replica, self.rank, self.incarnation, generation),
            deadline_s=deadline_s, plan=self.plan)
        try:
            _, self.left = self.router.take(
                wire.HELLO_RING,
                pred=lambda h: (h.replica_id == left_id and h.rank_id == self.rank
                                and h.aux == generation),
                timeout=max(0.01, deadline - time.monotonic()),
                discard=lambda h: h.aux < generation)
        except Recoverable as exc:
            self.close_links()
            raise Recoverable(exc.reason, f"ring accept from {left_id}: {exc.detail}")
        self.left.plan = self.plan

    def close_links(self) -> None:
        for conn in (self.right, self.left):
            if conn is not None:
                conn.close()
        self.right = self.left = None

    def links_ready(self) -> bool:
        return self.n == 1 or (
            self.right is not None and not self.right.closed
            and self.left is not None and not self.left.closed)


class _Sender(threading.Thread):
    """Pumps queued chunks to the right neighbor, gated by the ack window."""

    def __init__(self, conn: transport.Connection, cfg: PipelineConfig,
                 generation: int, step: int, meter: InflightMeter):
        super().__init__(daemon=True)
        self.conn = conn
        self.cfg = cfg
        self.generation = generation
        self.step = step
        self.meter = meter
        self.q: queue.Queue = queue.Queue()
        self.error: Exception | None = None
        self._unacked: list[tuple[int, int, int, int]] = []  # part, ring_step, chunk, len
        self._seq = 0

    def run(self) -> None:
        try:
            while True:
                item = self.q.get()
                if item is None:
                    while self._unacked:
                        self._await_ack()
                    return
                part_idx, ring_step, chunk_idx, data = item
                while len(self._unacked) >= self.cfg.max_in_flight:
                    self._await_ack()
                head = wire.encode_chunk_header(self.generation, part_idx, ring_step,
                                                chunk_idx, len(data))
                self.conn.send_frame(wire.CHUNK_DATA, self.step, self._seq, data,
                                     timeout=self.cfg.per_chunk_timeout_s, head=head)
                self._seq += 1
                self.meter.sent(len(data))
                self._unacked.append((part_idx, ring_step, chunk_idx, len(data)))
        except FtdpError as exc:
            self.error = exc
        except Exception as exc:  # pragma: no cover - unexpected
            self.error = Fatal(INTERNAL_INVARIANT, f"sender crashed: {exc!r}")

    def _await_ack(self) -> None:
        frame = self.conn.recv_frame(timeout=self.cfg.per_chunk_timeout_s,
                                     max_len=wire.CHUNK_ACK_LEN)
        if frame.msg_type != wire.CHUNK_ACK:
            raise Fatal(PROTOCOL_VIOLATION, f"expected CHUNK_ACK, got {frame.name}")
        gen, part_idx, ring_step, chunk_idx, ln = wire.decode_chunk_ack(frame.payload)
        if gen != self.generation:
            return  # stale ack from an abandoned attempt; ignore
        if not self._unacked or self._unacked[0] != (part_idx, ring_step, chunk_idx, ln):
            raise Fatal(PROTOCOL_VIOLATION,
                        f"ack out of sequence: {(part_idx, ring_step, chunk_idx, ln)}")
        self._unacked.pop(0)
        self.meter.acked(ln)

    def finish(self) -> None:
        self.q.put(None)
        self.join(timeout=self.cfg.per_chunk_timeout_s * (len(self._unacked) + 2))
        if self.is_alive():
            raise Recoverable(TIMEOUT, "sender did not drain acknowledgments")
        if self.error is not None:
            raise self.error

    def abort(self) -> None:
        self.q.put(None)


def ftar_all_reduce(group: RingGroup, buf: np.ndarray, step: int,
                    cfg: PipelineConfig | None = None) -> np.ndarray:
    """Sum buf across the group, in place, returning the same array.

    On a Recoverable error the ring links are closed (so neighbors unblock
    quickly) and only whole partitions have been committed to buf; the
    caller retries after requorum with its original input. Single-member
    groups reduce to the identity.
    """
    cfg = cfg or PipelineConfig()
    if buf.dtype != np.float32 or not buf.flags.c_contiguous:
        raise Fatal(INTERNAL_INVARIANT, "all-reduce buffer must be contiguous float32")
    if group.n == 1:
        if not np.isfinite(buf).all():
            raise Fatal(NUMERICAL, "non-finite values in reduction payload")
        return buf
    if not group.links_ready():
        raise Recoverable(PEER_RESET, "ring links not established")
    plan = build_partition_plan(buf.nbytes, cfg, group.n)
    try:
        for part_idx, (p_off, p_len) in enumerate(plan.partitions):
            _reduce_partition(group, buf, part_idx, p_off, p_len, step, cfg)
    except FtdpError:
        group.close_links()
        raise
    return buf


def _reduce_partition(group: RingGroup, buf: np.ndarray, part_idx: int,
                      p_off: int, p_len: int, step: int, cfg: PipelineConfig) -> None:
    n = group.n
    me = group.index
    segs = segment_bounds(p_len, n)
    # Staging copy: the caller's region is rewritten only on completion.
    work = buf[p_off:p_off + p_len].copy()
    # Reduce-scatter chunks land here, one at a time, to be folded into work.
    scratch = memoryview(bytearray(min(cfg.chunk_elems, segs[0][1]) * ELEM))
    sender = _Sender(group.right, cfg, group.generation, step, group.meter)
    sender.start()
    try:
        for t in range(n - 1):
            _ring_step(group, sender, work, scratch, segs, part_idx,
                       ring_step=t, send_seg=(me - t) % n,
                       recv_seg=(me - t - 1) % n, reduce=True, cfg=cfg)
        for t in range(n - 1):
            _ring_step(group, sender, work, scratch, segs, part_idx,
                       ring_step=(n - 1) + t, send_seg=(me - t + 1) % n,
                       recv_seg=(me - t) % n, reduce=False, cfg=cfg)
        sender.finish()
    except FtdpError:
        sender.abort()
        raise
    if not np.isfinite(work).all():
        raise Fatal(NUMERICAL, "non-finite values in reduction payload")
    buf[p_off:p_off + p_len] = work


def _ring_step(group: RingGroup, sender: _Sender, work: np.ndarray, scratch: memoryview,
               segs: list[tuple[int, int]], part_idx: int, ring_step: int,
               send_seg: int, recv_seg: int, reduce: bool, cfg: PipelineConfig) -> None:
    if sender.error is not None:
        raise sender.error
    # The sender reads its chunks straight out of work, after this call has
    # moved on. That is safe because a segment is overwritten only by an
    # all-gather chunk, which comes from the left neighbor and can exist only
    # after this rank's earlier send of the same segment reached the right
    # neighbor in full: the reduction that produced it had to add that data.
    # Reduce-scatter only adds into segments this rank has not sent yet.
    raw = memoryview(work).cast("B")
    s_off, s_len = segs[send_seg]
    for chunk_idx, c_off, c_len in iter_chunks(s_len, cfg.chunk_elems):
        lo = (s_off + c_off) * ELEM
        sender.q.put((part_idx, ring_step, chunk_idx, raw[lo:lo + c_len * ELEM]))
    r_off, r_len = segs[recv_seg]
    for chunk_idx, c_off, c_len in iter_chunks(r_len, cfg.chunk_elems):
        lo = r_off + c_off
        if reduce:
            data = scratch[:c_len * ELEM]
            _recv_chunk(group, part_idx, ring_step, chunk_idx, data, cfg)
            kernels.accumulate(work[lo:lo + c_len], data)
        else:
            _recv_chunk(group, part_idx, ring_step, chunk_idx,
                        raw[lo * ELEM:(lo + c_len) * ELEM], cfg)
        ack = wire.encode_chunk_header(group.generation, part_idx, ring_step, chunk_idx, c_len * ELEM)
        group.left.send_frame(wire.CHUNK_ACK, sender.step, 0, ack,
                              timeout=cfg.per_chunk_timeout_s)


def _recv_chunk(group: RingGroup, part_idx: int, ring_step: int, chunk_idx: int,
                dest: memoryview, cfg: PipelineConfig) -> None:
    """Next in-generation chunk from the left neighbor, written into dest.
    Stale-generation frames are dropped without disturbing the current
    operation."""
    deadline = time.monotonic() + cfg.per_chunk_timeout_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise Recoverable(TIMEOUT, f"chunk ({part_idx},{ring_step},{chunk_idx}) never arrived")
        if group.left.recv_chunk_into(dest, group.generation, (part_idx, ring_step, chunk_idx),
                                      cfg.chunk_bytes, remaining):
            return
        log.debug("dropping a chunk of an older generation (current %d)", group.generation)
