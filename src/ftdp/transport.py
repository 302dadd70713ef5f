"""Stream-socket transport: framed messages, connect/accept with deadlines,
and an in-process fault-injection shim.

Every blocking call takes a timeout and raises the shared error taxonomy:
timeouts and vanished peers are Recoverable, garbage frames are Fatal.
A connection is owned by one execution context at a time, except that one
thread may send on it while another reads from it; concurrent use of
*different* connections from different threads is fine.

Fault rules black-hole inter-replica data links (ring chunks and state
fetches). Control traffic (quorum reports and votes, intra-replica frames)
is exempt: the coordinator link is assumed reliable and intra-replica links
model a local interconnect, not the network. Rule windows are keyed to the
logical clock observed from quorum decisions, so runs stay reproducible.
"""

from __future__ import annotations

import contextlib
import errno
import logging
import math
import select
import selectors
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import TypeVar

from ftdp import wire
from ftdp.errors import (
    ConfigError,
    Fatal,
    PEER_DOWN,
    PEER_RESET,
    PROTOCOL_VIOLATION,
    Recoverable,
    SnapshotUnavailable,
    TIMEOUT,
)

log = logging.getLogger(__name__)

DEFAULT_TIMEOUT_S = 5.0
_RETRY_PAUSE_S = 0.05

# Purposes subject to fault rules (inter-replica data plane).
_FAULTABLE = {wire.HELLO_RING, wire.HELLO_FETCH}


@dataclass(frozen=True)
class PeerAddress:
    replica_id: int
    rank_id: int
    host: str
    port: int

    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)


@dataclass
class FaultRule:
    """One injected black hole on a replica's data links: while it is
    active, sends to or from the replica are swallowed, receives starve
    until their timeout, and connects stall until their deadline.

    The window opens at the first observation of target_step >= at_step and
    lasts duration_steps logical epochs. Epochs advance even when a step is
    being retried, so a rule that itself causes retries still expires.
    """

    replica_id: int
    at_step: int
    duration_steps: int = 1
    activated_epoch: int | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.duration_steps < 1:
            raise ConfigError("fault duration_steps must be >= 1")


class FaultPlan:
    """Process-local rule table plus the logical clock that drives it.

    The engine calls observe() once per decision; IO paths call effects()
    with the remote replica id. The table is read-shared; the clock is only
    written at step boundaries.
    """

    def __init__(self, rules: list[FaultRule] | None = None, self_replica: int | None = None):
        self.rules = list(rules or [])
        self.self_replica = self_replica
        self.epoch = 0
        self.target = 0
        self._lock = threading.Lock()

    def observe(self, target_step: int, epoch: int) -> None:
        with self._lock:
            self.target = max(self.target, target_step)
            self.epoch = max(self.epoch, epoch)
            for rule in self.rules:
                if rule.activated_epoch is None and self.target >= rule.at_step:
                    rule.activated_epoch = self.epoch

    def effects(self, peer_replica: int | None) -> list[FaultRule]:
        if not self.rules:
            return []
        with self._lock:
            out = []
            for rule in self.rules:
                if rule.activated_epoch is None:
                    continue
                if self.epoch >= rule.activated_epoch + rule.duration_steps:
                    continue
                if rule.replica_id == peer_replica or rule.replica_id == self.self_replica:
                    out.append(rule)
            return out


class Connection:
    """One framed duplex stream.

    The socket is non-blocking for the connection's whole life. A call that
    must wait polls the socket itself, bounded by its own deadline, so no
    call changes state that another thread's call depends on: one thread
    may send on a connection while another reads from it.
    """

    def __init__(self, sock: socket.socket, peer: PeerAddress | None = None,
                 purpose: int = 0, plan: FaultPlan | None = None):
        self.sock = sock
        self.peer = peer
        self.purpose = purpose
        self.plan = plan
        self.closed = False
        self._rxbuf = bytearray()
        self._scratch = bytearray(65536)
        self._chunk_in: list | None = None  # [current, position, length] of a frame being read
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass

    # -- fault shim ---------------------------------------------------------

    def _black_holed(self) -> bool:
        """True while a fault rule covers this data link."""
        if self.plan is None or self.purpose not in _FAULTABLE:
            return False
        peer_replica = self.peer.replica_id if self.peer else None
        return bool(self.plan.effects(peer_replica))

    # -- framed IO ----------------------------------------------------------

    def send_frame(self, msg_type: int, step: int = 0, seq: int = 0,
                   payload: bytes = b"", timeout: float = DEFAULT_TIMEOUT_S) -> None:
        """Send one frame. payload may be any buffer whose len() counts
        bytes, such as a byte memoryview of an array: it is written from
        where it lies, after the frame header, in one sendmsg and without a
        copy.
        """
        head = wire.encode_frame_head(msg_type, step, seq, len(payload))
        rest = self.send_some((head, payload))
        if not rest:
            return
        deadline = time.monotonic() + timeout
        try:
            while rest:
                self._wait(select.POLLOUT, deadline)
                rest = self.send_some(rest)
        except socket.timeout as exc:
            raise Recoverable(TIMEOUT, f"send to {self.peer}: {exc}") from exc
        except OSError as exc:
            self.close()
            raise Recoverable(PEER_RESET, f"send to {self.peer}: {exc}") from exc

    def send_some(self, parts) -> list:
        """Write what the socket takes now of parts, buffers whose len()
        counts bytes that go out in order, and return the rest as a list
        of byte memoryviews ([] once all is written). Never waits: the
        caller waits for the socket to be writable and calls again with
        the rest. A black-holed link swallows everything, so its peer sees
        nothing.
        """
        if self.closed:
            raise Recoverable(PEER_RESET, "connection closed")
        if self._black_holed():
            return []
        try:
            sent = self.sock.sendmsg(parts)
        except BlockingIOError:
            sent = 0
        except OSError as exc:
            self.close()
            raise Recoverable(PEER_RESET, f"send to {self.peer}: {exc}") from exc
        rest = []
        for part in parts:
            if sent < len(part):
                rest.append(memoryview(part)[sent:])
            sent = max(0, sent - len(part))
        return rest

    def _wait(self, events: int, deadline: float) -> None:
        """Return once the socket is ready for events (select.POLLIN or
        POLLOUT); raise socket.timeout if deadline passes first."""
        remaining = deadline - time.monotonic()
        if remaining > 0:
            poller = select.poll()
            fd = self.sock.fileno()
            if fd < 0:  # closed by another thread
                raise OSError(errno.EBADF, "socket closed")
            poller.register(fd, events)
            if poller.poll(remaining * 1000):
                return
        raise socket.timeout("timed out")

    def recv_frame(self, timeout: float = DEFAULT_TIMEOUT_S,
                   max_len: int = wire.MAX_FRAME_LEN) -> wire.Frame:
        """Next whole frame. max_len is the largest frame, counted after its
        length prefix, that the caller expects; a longer one is Fatal before
        any of it is buffered beyond the length prefix."""
        if self.closed:
            raise Recoverable(PEER_RESET, "connection closed")
        deadline = time.monotonic() + timeout
        if self._black_holed():
            time.sleep(timeout)
            raise Recoverable(TIMEOUT, f"recv from {self.peer}: black-holed")
        return self.poll_frame(max_len, deadline)

    def poll_frame(self, max_len: int, deadline: float | None = None) -> wire.Frame | None:
        """The next whole frame, bounded by max_len as in recv_frame. With
        deadline None it reads only what has arrived and returns None if the
        frame is not all in; otherwise it waits for it until deadline."""
        # Consumed bytes are parked in _rxbuf and only removed once a whole
        # frame is present. A timeout mid-frame must leave the stream in
        # place: dropping a half-read frame would make the next call parse
        # mid-frame bytes as a length prefix and desync the stream for good.
        buf = self._rxbuf
        while True:
            if len(buf) >= 4:
                (total,) = wire._LEN.unpack_from(buf)
                if total < wire.HEADER_LEN or total > max_len:
                    raise Fatal(PROTOCOL_VIOLATION, f"bad frame length {total}")
                if len(buf) >= 4 + total:
                    frame = wire.decode_frame(bytes(buf[4:4 + total]))
                    del buf[:4 + total]
                    return frame
            if not self._fill(deadline):
                return None

    @property
    def buffered(self) -> int:
        """Bytes read from the socket that no frame has consumed yet. A
        selector does not see them, so a reader that waits on one checks
        here first."""
        return len(self._rxbuf)

    def recv_chunk_into(self, dest, generation: int, want: tuple[int, int, int],
                        max_len: int, deadline: float) -> bool | None:
        """Move what has arrived of the next CHUNK_DATA frame, never waiting.

        want is the (partition, ring_step, chunk) expected next and
        len(dest) its data length in bytes; dest is a writable buffer whose
        len() counts bytes, such as a byte memoryview of an array. Returns
        None while the frame is incomplete: the connection keeps its place,
        and the caller calls again with the same arguments once the socket
        is readable (or buffered is non-zero). Returns True once the
        wanted chunk is wholly in dest, and False once a chunk of another
        generation, a straggler from an abandoned attempt, has been read
        and dropped.

        The header is checked before any data byte is read: another
        message type, data longer than max_len, or a chunk of this
        generation other than the one wanted is Fatal. The caller owns the
        wait; deadline is when it ends, and a black-holed link sleeps until
        then and raises TIMEOUT, as a silent peer would. A caller that gives
        up inside a frame must close the connection: nothing could find the
        next frame boundary after it.
        """
        if self.closed:
            raise Recoverable(PEER_RESET, "connection closed")
        if self._black_holed():
            time.sleep(max(0.0, deadline - time.monotonic()))
            raise Recoverable(TIMEOUT, f"recv from {self.peer}: black-holed")
        if self._chunk_in is None:
            buf = self._rxbuf
            head_len = wire.CHUNK_FRAME.size
            # A frame of another type, or one too short to hold a chunk
            # header, may end before 41 bytes, so it is judged as soon as its
            # length prefix and type are in.
            while len(buf) < head_len and (len(buf) < 5 or (
                    buf[4] == wire.CHUNK_DATA and wire._LEN.unpack_from(buf)[0] >= head_len - 4)):
                if not self._fill(None):
                    return None
            if buf[4] != wire.CHUNK_DATA:
                name = wire.TAG_NAMES.get(buf[4], f"0x{buf[4]:02x}")
                raise Fatal(PROTOCOL_VIOLATION, f"expected CHUNK_DATA, got {name}")
            if len(buf) < head_len:
                raise Fatal(PROTOCOL_VIOLATION,
                            f"short CHUNK_DATA frame of length {wire._LEN.unpack_from(buf)[0]}")
            total, _t, _step, _seq, gen, part, ring_step, chunk, n = wire.CHUNK_FRAME.unpack_from(buf)
            if total != head_len - 4 + n or n > max_len:
                raise Fatal(PROTOCOL_VIOLATION,
                            f"bad CHUNK_DATA length {total} (data {n}, at most {max_len})")
            current = gen == generation
            if current and ((part, ring_step, chunk) != want or n != len(dest)):
                raise Fatal(PROTOCOL_VIOLATION,
                            f"chunk out of sequence: got {(part, ring_step, chunk, n)}, "
                            f"want {want + (len(dest),)}")
            del buf[:head_len]
            self._chunk_in = [current, 0, n]
        current, pos, n = self._chunk_in
        pos = self._read_data(dest if current else None, pos, n)
        if pos < n:
            self._chunk_in[1] = pos
            return None
        self._chunk_in = None
        return current

    def _read_data(self, dest, pos: int, n: int) -> int:
        """Move bytes pos..n of the current frame's data into dest, or drop
        them when dest is None, as far as they have arrived; return the new
        position. Bytes already buffered are taken first; the rest go from
        the socket straight into dest."""
        buf = self._rxbuf
        have = min(len(buf), n - pos)
        if have:
            if dest is not None:
                dest[pos:pos + have] = buf[:have]
            del buf[:have]
            pos += have
        while pos < n:
            if dest is None:
                target = memoryview(self._scratch)[:n - pos]
            else:
                target = dest[pos:n]
            k = self._recv_into(target, None)
            pos += k
            if k < len(target):
                break  # the socket is drained
        return pos

    def _fill(self, deadline: float | None) -> int:
        k = self._recv_into(self._scratch, deadline)
        self._rxbuf += memoryview(self._scratch)[:k]
        return k

    def _recv_into(self, target, deadline: float | None) -> int:
        """Bytes read into target. With deadline None only what has arrived
        is read, 0 if nothing has; otherwise the first byte is waited for
        until deadline."""
        try:
            while True:
                try:
                    k = self.sock.recv_into(target)
                    break
                except BlockingIOError:
                    if deadline is None:
                        return 0
                    self._wait(select.POLLIN, deadline)
        except socket.timeout as exc:
            raise Recoverable(TIMEOUT, f"recv from {self.peer}: {exc}") from exc
        except OSError as exc:
            self.close()
            raise Recoverable(PEER_RESET, f"recv from {self.peer}: {exc}") from exc
        if k == 0:
            self.close()
            raise Recoverable(PEER_RESET, f"recv from {self.peer}: peer closed")
        return k

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass


def connect(addr: PeerAddress, purpose: int, hello_args: tuple[int, int, int, int],
            deadline_s: float = DEFAULT_TIMEOUT_S, plan: FaultPlan | None = None) -> Connection:
    """Dial addr and send the routing hello. Retries refused connections
    until the deadline; a peer that never answers is Recoverable(peer_down).

    hello_args = (replica_id, rank_id, incarnation, aux) of the dialer.
    """
    deadline = time.monotonic() + deadline_s
    if plan is not None and purpose in _FAULTABLE and plan.effects(addr.replica_id):
        time.sleep(max(0.0, deadline - time.monotonic()))
        raise Recoverable(PEER_DOWN, f"connect to {addr}: black-holed")
    last_exc: Exception | None = None
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise Recoverable(PEER_DOWN, f"connect to {addr}: {last_exc}")
        try:
            sock = socket.create_connection(addr.endpoint(), timeout=remaining)
            break
        except (ConnectionRefusedError, ConnectionResetError, OSError) as exc:
            last_exc = exc
            time.sleep(min(_RETRY_PAUSE_S, max(0.0, deadline - time.monotonic())))
    conn = Connection(sock, peer=addr, purpose=purpose, plan=plan)
    replica_id, rank_id, incarnation, aux = hello_args
    conn.send_frame(
        wire.HEARTBEAT,
        payload=wire.encode_hello(purpose, replica_id, rank_id, incarnation, aux),
        timeout=max(0.05, deadline - time.monotonic()),
    )
    return conn


@dataclass
class Hello:
    purpose: int
    replica_id: int
    rank_id: int
    incarnation: int
    aux: int


def read_hello(conn: Connection) -> Hello | None:
    """The dialer's hello once it is whole in conn, else None; never waits.
    Anything but a HEARTBEAT of at most wire.HELLO_LEN is Fatal. The caller
    closes a dialer with no hello in DEFAULT_TIMEOUT_S after its accept."""
    frame = conn.poll_frame(wire.HELLO_LEN)
    if frame is None:
        return None
    if frame.msg_type != wire.HEARTBEAT:
        raise Fatal(PROTOCOL_VIOLATION, f"expected hello, got {frame.name}")
    hello = Hello(*wire.decode_hello(frame.payload))
    conn.peer = PeerAddress(hello.replica_id, hello.rank_id, "", 0)
    conn.purpose = hello.purpose
    return hello


class Listener:
    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 64):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(backlog)
        self.host, self.port = self.sock.getsockname()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


@dataclass
class Inbound:
    """An accepted connection still in an I/O loop's hands."""
    conn: Connection
    deadline: float  # math.inf once nothing is due from the dialer
    hello: Hello | None = None
    rest: list | None = None  # fetch response parts not yet written

    def drop(self, sel: selectors.BaseSelector) -> None:
        """Unregister from sel and close; safe to call again."""
        with contextlib.suppress(KeyError, ValueError):
            sel.unregister(self.conn.sock)
        self.conn.close()


_S = TypeVar("_S", bound="SelectorService")


class SelectorService:
    """A service on one thread. The subclass's _loop runs serve(), one
    selectors loop over the listener; stop() ends it."""

    def __init__(self, listener: Listener, name: str):
        self.listener = listener
        self._stop = False
        self._sel = selectors.DefaultSelector()
        self._wake, self._waker = socket.socketpair()  # stop() writes a byte
        self._thread = threading.Thread(target=self._loop, daemon=True, name=name)

    def start(self: _S) -> _S:
        self._thread.start()
        return self

    def serve(self, ready, tick=None) -> None:
        """Run the loop until stop(), then close the listener and every
        connection still registered. Each dial becomes an Inbound whose
        hello is due in DEFAULT_TIMEOUT_S; ready(inbound) runs whenever one's
        socket is ready, one past its deadline is dropped, and after every
        pass tick(now) returns when it next needs a pass without an event
        (math.inf: never)."""
        sel, listener = self._sel, self.listener.sock
        listener.setblocking(False)
        sel.register(listener, selectors.EVENT_READ)
        sel.register(self._wake, selectors.EVENT_READ)
        due = math.inf
        try:
            while not self._stop:
                first = min([due] + [key.data.deadline for key in sel.get_map().values()
                                     if key.data])
                for key, _ in sel.select(None if first == math.inf
                                         else max(0.0, first - time.monotonic())):
                    if key.data:
                        ready(key.data)
                    elif key.fileobj is listener:
                        with contextlib.suppress(BlockingIOError):
                            sock = listener.accept()[0]
                            sel.register(sock, selectors.EVENT_READ, Inbound(
                                Connection(sock), time.monotonic() + DEFAULT_TIMEOUT_S))
                now = time.monotonic()
                for key in list(sel.get_map().values()):
                    if key.data and key.data.deadline <= now:
                        log.debug("inbound connection timed out")
                        key.data.drop(sel)
                due = tick(now) if tick else math.inf
        finally:
            for key in list(sel.get_map().values()):
                if key.data:
                    key.data.conn.close()
            sel.close()
            self.listener.close()
            self._wake.close()

    def stop(self) -> None:
        """End the thread, which closes the listener and every connection
        still in its hands, and wait for it. Safe to call again."""
        self._stop = True
        with contextlib.suppress(OSError):  # the loop may have ended already
            self._waker.send(b"\0")
        self._thread.join(timeout=DEFAULT_TIMEOUT_S)
        self._waker.close()


class ConnectionRouter(SelectorService):
    """The I/O thread of a process: one selectors loop (serve) over its
    listener. stop() also closes every connection not yet claimed.

    The loop accepts and reads each hello without blocking (read_hello),
    closing a dialer with no whole hello in by DEFAULT_TIMEOUT_S. Ring
    links are parked until take() claims one, which transfers ownership.
    From stores, the replica's SnapshotStore of each rank, the loop serves
    fetches itself: it reads the request, then writes the hello rank's
    shard as the socket drains, each under a fresh DEFAULT_TIMEOUT_S
    deadline. Any other hello, a fetch for a rank it does not hold, or a
    request for another rank than the hello's is closed at once.
    """

    def __init__(self, listener: Listener, stores: list | tuple = ()):
        super().__init__(listener, "io")
        self.stores = stores
        self._buckets: dict[int, list[tuple[Hello, Connection]]] = {}
        self._cv = threading.Condition()

    def _loop(self) -> None:
        try:
            self.serve(self._advance)
        finally:
            with self._cv:
                for bucket in self._buckets.values():
                    for _, conn in bucket:
                        conn.close()
                self._buckets.clear()

    def _advance(self, p: Inbound) -> None:
        """Move p on as far as its socket allows: park it once its hello is
        in, or serve its fetch and close it."""
        conn = p.conn
        try:
            if p.hello is None:
                p.hello = read_hello(conn)
                if p.hello is None:
                    return
                p.deadline = time.monotonic() + DEFAULT_TIMEOUT_S
                if p.hello.purpose == wire.HELLO_RING:
                    self._sel.unregister(conn.sock)
                    with self._cv:
                        self._buckets.setdefault(conn.purpose, []).append((p.hello, conn))
                        self._cv.notify_all()
                    return
                if (p.hello.purpose != wire.HELLO_FETCH
                        or not 0 <= p.hello.rank_id < len(self.stores)):
                    raise Fatal(PROTOCOL_VIOLATION, f"no one here claims {p.hello}")
            if p.rest is None:
                frame = conn.poll_frame(wire.FETCH_REQ_LEN)
                if frame is None:
                    return
                p.deadline = time.monotonic() + DEFAULT_TIMEOUT_S
                p.rest = self._fetch_response(p.hello.rank_id, frame)
                self._sel.modify(conn.sock, selectors.EVENT_WRITE, p)
            p.rest = conn.send_some(p.rest)
            if p.rest:
                return
        except (Recoverable, Fatal) as exc:
            log.debug("router: dropping inbound connection: %s", exc)
        p.drop(self._sel)

    def _fetch_response(self, rank: int, frame: wire.Frame) -> list:
        """The parts of the answer to a fetch request over a hello of rank:
        rank's state at the step asked for, or only the step it holds."""
        if frame.msg_type != wire.FETCH_STATE_REQ:
            raise Fatal(PROTOCOL_VIOLATION, f"expected FETCH_STATE_REQ, got {frame.name}")
        step, asked = wire.decode_fetch_req(frame.payload)
        if asked != rank:
            raise Fatal(PROTOCOL_VIOLATION, f"request for rank {asked} over a rank {rank} hello")
        try:
            params, _momentum = self.stores[rank].get(step)
            held, body = step, params.obj
        except SnapshotUnavailable as exc:
            held, body = exc.available or 0, b""
        head = wire.encode_fetch_resp_head(held, rank, len(body))
        return [wire.encode_frame_head(wire.FETCH_STATE_RESP, step, 0, len(head) + len(body))
                + head, body]

    def take(self, purpose: int, pred=None, timeout: float = DEFAULT_TIMEOUT_S,
             discard=None) -> tuple[Hello, Connection]:
        """Claim the first parked connection matching pred. Connections
        matching discard (e.g. stale generations) are closed and removed."""
        deadline = time.monotonic() + timeout
        with self._cv:
            while True:
                bucket = self._buckets.get(purpose, [])
                if discard is not None:
                    stale = [item for item in bucket if discard(item[0])]
                    for item in stale:
                        bucket.remove(item)
                        item[1].close()
                for item in bucket:
                    if pred is None or pred(item[0]):
                        bucket.remove(item)
                        return item
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise Recoverable(TIMEOUT, f"no inbound connection for purpose {purpose}")
                self._cv.wait(remaining)
