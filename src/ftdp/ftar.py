"""Fault-tolerant ring all-reduce over stream sockets.

A message is split into partitions of at most chunk_bytes * max_in_flight
* N bytes, and each partition is reduced on one of two paths over the same
ring links:

- A partition of at most GATHER_MAX_BYTES per member is gathered whole,
  unless its chunks are so small that a block needs many more chunk frames
  than two segments (_gathers): in N-1 ring steps every member forwards
  each member's copy of it, so each member ends with all N copies and
  folds them itself. A small partition costs hop latency, not bytes, and
  this takes half the ring's hops.
- A larger partition runs as ReduceScatter then AllGather, each N-1 ring
  steps, so each member sends only about twice the partition.

Within a partition each ring step moves one segment (ring) or one member's
block (gather), pipelined as chunks of at most chunk_bytes with a bounded
unacknowledged window per peer link.

The calling rank thread drives both of its links itself, with no helper
thread: it sends its chunks without waiting, and whenever it must wait (for
the next chunk, for the window, for a full socket buffer to take the rest of
a frame) one selectors loop serves the left link and the right one together.

Failure semantics: anything that smells of a lost or slow peer surfaces as
Recoverable and leaves the caller's buffer with only whole partitions
committed (reduction happens in a staging copy). The caller regroups via
the quorum service and retries with fresh membership and a new generation;
chunk frames carry the generation so a straggler from an abandoned attempt
is discarded rather than corrupting the new one. Garbage frames and
non-finite payloads are Fatal: better to crash one replica than to commit
a poisoned update everywhere.

Reduction order is fixed on both paths: each segment is a float32
left-fold of the members' values in ring order (ascending replica id),
starting at the segment's owner. So every member computes the same bits,
whichever path a partition takes.
"""

from __future__ import annotations

import logging
import selectors
import time
from collections import deque
from dataclasses import dataclass

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

# Partitions of at most this many bytes per member may take the gather
# path: N-1 hops, each moving a whole block, instead of the ring's 2(N-1)
# hops of one segment. It also bounds the gather's staging: N+1 times this
# per rank. The value comes from a loopback crossover measurement
# (CHANGES.md).
GATHER_MAX_BYTES = 64 * 1024

# What a hop costs beyond the chunk frames it carries, counted in chunk
# frames (see _gathers).
HOP_FRAMES = 2


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
        # Reused by every all-reduce, grown to the largest partition seen.
        self._staging = np.empty(0, dtype=np.float32)
        self._scratch = bytearray()

    def buffers(self, part_elems: int, scratch_bytes: int) -> tuple[np.ndarray, memoryview]:
        """The staging array for one partition and the chunk scratch."""
        if self._staging.size < part_elems:
            self._staging = np.empty(part_elems, dtype=np.float32)
        if len(self._scratch) < scratch_bytes:
            self._scratch = bytearray(scratch_bytes)
        return self._staging[:part_elems], memoryview(self._scratch)[:scratch_bytes]

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


class _Pipe:
    """One partition's ring traffic, driven by the rank thread itself.

    Chunks to send wait in outbox and leave, in order, as the ack window
    and the right link's socket allow; a frame the socket took only in
    part keeps its unsent tail in rest. No call waits except recv and
    drain, and both wait in _wait, which serves both links: it resumes the
    partial send and reads acknowledgments while the chunk from the left
    comes in. So a send blocked on a full socket buffer never stops this
    rank from reading, and the ring cannot deadlock on it.
    """

    def __init__(self, right: transport.Connection, left: transport.Connection,
                 cfg: PipelineConfig, generation: int, step: int, part_idx: int,
                 meter: InflightMeter):
        self.right = right
        self.left = left
        self.cfg = cfg
        self.generation = generation
        self.step = step
        self.part_idx = part_idx
        self.meter = meter
        self.outbox: deque[tuple[int, int, memoryview]] = deque()  # ring_step, chunk, data
        self.rest: list = []  # unsent tail of the frame being written
        self.unacked: deque[tuple[int, int, int, int]] = deque()  # part, ring_step, chunk, len
        self.seq = 0
        # poll(2) needs no kernel object of its own, unlike epoll, and two
        # descriptors are all it watches.
        self.sel = selectors.PollSelector()
        self.watched: dict = {}  # socket -> the events registered for it

    def close(self) -> None:
        self.sel.close()

    def send(self) -> None:
        """Start or resume chunk sends as far as the window and the socket
        allow, without waiting. A chunk counts against the window from the
        moment its first byte is offered."""
        if self.rest:
            self.rest = self.right.send_some(self.rest)
        while not self.rest and self.outbox and len(self.unacked) < self.cfg.max_in_flight:
            ring_step, chunk_idx, data = self.outbox.popleft()
            chunk_head = wire.encode_chunk_header(self.generation, self.part_idx, ring_step,
                                                  chunk_idx, len(data))
            head = wire.encode_frame_head(wire.CHUNK_DATA, self.step, self.seq,
                                          len(chunk_head) + len(data)) + chunk_head
            self.seq += 1
            self.unacked.append((self.part_idx, ring_step, chunk_idx, len(data)))
            self.meter.sent(len(data))
            self.rest = self.right.send_some([head, data])

    def recv(self, ring_step: int, chunk_idx: int, dest: memoryview) -> None:
        """Receive the next in-generation chunk from the left into dest and
        acknowledge it. Stale-generation frames are dropped without
        disturbing the current operation."""
        want = (self.part_idx, ring_step, chunk_idx)
        self.send()
        deadline = time.monotonic() + self.cfg.per_chunk_timeout_s
        while True:
            got = self.left.recv_chunk_into(dest, self.generation, want,
                                            self.cfg.chunk_bytes, deadline)
            if got:
                break
            if got is None:
                self._wait(deadline, want)
            else:
                log.debug("dropping a chunk of an older generation (current %d)",
                          self.generation)
        ack = wire.encode_chunk_header(self.generation, *want, len(dest))
        self.left.send_frame(wire.CHUNK_ACK, self.step, 0, ack,
                             timeout=self.cfg.per_chunk_timeout_s)

    def drain(self) -> None:
        """Finish every send and collect every acknowledgment; each
        acknowledgment has per_chunk_timeout_s to arrive."""
        self.send()
        while self.unacked:
            outstanding = len(self.unacked) + len(self.outbox)
            deadline = time.monotonic() + self.cfg.per_chunk_timeout_s
            while len(self.unacked) + len(self.outbox) == outstanding:
                self._wait(deadline)

    def _wait(self, deadline: float, want: tuple[int, int, int] | None = None) -> None:
        """Sleep until a link can move, then move what the right link
        allows: read its acknowledgments and resume or start sends. The
        left link is watched while a chunk is wanted; the caller reads it.
        The right link is watched for acknowledgments only while chunks
        wait for the window or for drain, and for room while a frame is
        half sent."""
        reading = want is not None
        right = selectors.EVENT_READ if (self.outbox or not reading) else 0
        if self.rest:
            right |= selectors.EVENT_WRITE
        self._watch(self.right.sock, right)
        self._watch(self.left.sock, selectors.EVENT_READ if reading else 0)
        timeout = deadline - time.monotonic()
        ready = self.sel.select(timeout) if timeout > 0 else []
        if not ready:
            what = f"chunk {want}" if reading else "acknowledgment"
            raise Recoverable(TIMEOUT, f"{what} never arrived")
        for key, events in ready:
            if key.fileobj is self.right.sock:
                if events & selectors.EVENT_READ:
                    self._read_acks(deadline)
                self.send()

    def _watch(self, sock, events: int) -> None:
        was = self.watched.get(sock, 0)
        if events == was:
            return
        if not was:
            self.sel.register(sock, events)
        elif not events:
            self.sel.unregister(sock)
        else:
            self.sel.modify(sock, events)
        self.watched[sock] = events

    def _read_acks(self, deadline: float) -> None:
        """Take every acknowledgment the right link has delivered. The
        acknowledger writes each in one send, so a frame that has begun to
        arrive completes without anything from this rank."""
        while True:
            frame = self.right.recv_frame(timeout=max(0.0, deadline - time.monotonic()),
                                          max_len=wire.CHUNK_ACK_LEN)
            if frame.msg_type != wire.CHUNK_ACK:
                raise Fatal(PROTOCOL_VIOLATION, f"expected CHUNK_ACK, got {frame.name}")
            gen, part_idx, ring_step, chunk_idx, ln = wire.decode_chunk_ack(frame.payload)
            if gen == self.generation:  # else a stale ack from an abandoned attempt
                if not self.unacked or self.unacked[0] != (part_idx, ring_step, chunk_idx, ln):
                    raise Fatal(PROTOCOL_VIOLATION,
                                f"ack out of sequence: {(part_idx, ring_step, chunk_idx, ln)}")
                self.unacked.popleft()
                self.meter.acked(ln)
            if not self.right.buffered:
                return


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
        _check_finite(buf)
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
    # Staging copy: the caller's region is rewritten only on completion.
    pipe = _Pipe(group.right, group.left, cfg, group.generation, step, part_idx, group.meter)
    try:
        if _gathers(p_len, group.n, cfg.chunk_elems):
            work = _gather_fold(group, pipe, buf[p_off:p_off + p_len])
        else:
            work = _ring_reduce(group, pipe, buf[p_off:p_off + p_len])
    finally:
        pipe.close()
    _check_finite(work)
    buf[p_off:p_off + p_len] = work


def _gathers(p_len: int, n: int, chunk_elems: int) -> bool:
    """Whether a partition of p_len floats per member takes the gather: it
    fits GATHER_MAX_BYTES, and a block needs no more chunk frames than two
    of the ring's segments plus HOP_FRAMES, so that (N-1) * (block +
    HOP_FRAMES) is at most 2(N-1) * (segment + HOP_FRAMES). With chunks far
    below the partition a block takes about N/2 times the frames of two
    segments, and the ring is cheaper."""
    def frames(elems: int) -> int:
        return -(-elems // chunk_elems)

    largest_segment = -(-p_len // n)
    return (p_len * ELEM <= GATHER_MAX_BYTES
            and frames(p_len) <= 2 * frames(largest_segment) + HOP_FRAMES)


def _ring_reduce(group: RingGroup, pipe: _Pipe, part: np.ndarray) -> np.ndarray:
    """Reduce-scatter then all-gather, 2(n-1) ring steps of one segment."""
    n = group.n
    me = group.index
    segs = segment_bounds(part.size, n)
    # Reduce-scatter chunks land in scratch, one at a time, to be folded
    # into work.
    work, scratch = group.buffers(part.size, min(pipe.cfg.chunk_elems, segs[0][1]) * ELEM)
    np.copyto(work, part)
    for t in range(n - 1):
        _ring_step(pipe, work, scratch, segs, ring_step=t, send_seg=(me - t) % n,
                   recv_seg=(me - t - 1) % n, reduce=True)
    for t in range(n - 1):
        _ring_step(pipe, work, scratch, segs, ring_step=(n - 1) + t,
                   send_seg=(me - t + 1) % n, recv_seg=(me - t) % n, reduce=False)
    pipe.drain()
    return work


def _gather_fold(group: RingGroup, pipe: _Pipe, part: np.ndarray) -> np.ndarray:
    """Gather every member's copy of the partition, n-1 ring steps of one
    block, then fold each segment locally in the ring's order."""
    n = group.n
    me = group.index
    p_len = part.size
    # Block b of staging holds member b's partition; the row after the
    # last block receives the folded result.
    staging, scratch = group.buffers((n + 1) * p_len, 0)
    blocks = [(b * p_len, p_len) for b in range(n)]
    np.copyto(staging[me * p_len:(me + 1) * p_len], part)
    for t in range(n - 1):
        _ring_step(pipe, staging, scratch, blocks, ring_step=t, send_seg=(me - t) % n,
                   recv_seg=(me - t - 1) % n, reduce=False)
    pipe.drain()
    # Segment s is summed from its owner s onwards, as the reduce-scatter
    # adds it (float addition is commutative, so the first add matches).
    raw = memoryview(staging).cast("B")
    out = staging[n * p_len:]
    for s, (s_off, s_len) in enumerate(segment_bounds(p_len, n)):
        acc = out[s_off:s_off + s_len]
        np.copyto(acc, staging[s * p_len + s_off:s * p_len + s_off + s_len])
        for k in range(1, n):
            lo = (((s + k) % n) * p_len + s_off) * ELEM
            kernels.accumulate(acc, raw[lo:lo + s_len * ELEM])
    return out


def _check_finite(a: np.ndarray) -> None:
    # min and max propagate NaN and expose an infinity, and unlike isfinite
    # they allocate nothing the size of a.
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise Fatal(NUMERICAL, "non-finite values in reduction payload")


def _ring_step(pipe: _Pipe, work: np.ndarray, scratch: memoryview,
               segs: list[tuple[int, int]], ring_step: int,
               send_seg: int, recv_seg: int, reduce: bool) -> None:
    # Chunks leave straight out of work, some only after this call has
    # returned: waiting in the outbox, or half sent with the tail in
    # pipe.rest. That is safe because a segment is overwritten only by an
    # all-gather chunk, which comes from the left neighbor and can exist only
    # after this rank's earlier send of the same segment reached the right
    # neighbor in full: the reduction that produced it had to add that data.
    # Reduce-scatter only adds into segments this rank has not sent yet.
    # On the gather path the segments are the members' disjoint blocks: a
    # block is forwarded only after it has been received in full (or is
    # this rank's own), and each block is written by its one receive, so
    # no receive lands in a block that is still queued or half sent.
    chunk_elems = pipe.cfg.chunk_elems
    raw = memoryview(work).cast("B")
    s_off, s_len = segs[send_seg]
    for chunk_idx, c_off, c_len in iter_chunks(s_len, chunk_elems):
        lo = (s_off + c_off) * ELEM
        pipe.outbox.append((ring_step, chunk_idx, raw[lo:lo + c_len * ELEM]))
    r_off, r_len = segs[recv_seg]
    for chunk_idx, c_off, c_len in iter_chunks(r_len, chunk_elems):
        lo = r_off + c_off
        if reduce:
            data = scratch[:c_len * ELEM]
            pipe.recv(ring_step, chunk_idx, data)
            kernels.accumulate(work[lo:lo + c_len], data)
        else:
            pipe.recv(ring_step, chunk_idx, raw[lo * ELEM:(lo + c_len) * ELEM])
