"""Stream-socket transport: framed messages, connect/accept with deadlines,
and an in-process fault-injection shim.

Every blocking call takes a timeout and raises the shared error taxonomy:
timeouts and vanished peers are Recoverable, garbage frames are Fatal.
A connection is owned by one execution context at a time; concurrent use
of *different* connections from different threads is fine.

Fault rules black-hole inter-replica data links (ring chunks and state
fetches). Control traffic (quorum reports, intra-replica frames)
is exempt: the coordinator link is assumed reliable and intra-replica links
model a local interconnect, not the network. Rule windows are keyed to the
logical clock observed from quorum decisions, so runs stay reproducible.
"""

from __future__ import annotations

import logging
import queue
import socket
import threading
import time
from dataclasses import dataclass, field

from ftdp import wire
from ftdp.errors import (
    ConfigError,
    Fatal,
    PEER_DOWN,
    PEER_RESET,
    PROTOCOL_VIOLATION,
    Recoverable,
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
    """One framed duplex stream."""

    def __init__(self, sock: socket.socket, peer: PeerAddress | None = None,
                 purpose: int = 0, plan: FaultPlan | None = None):
        self.sock = sock
        self.peer = peer
        self.purpose = purpose
        self.plan = plan
        self.closed = False
        self._rxbuf = bytearray()
        self._scratch = bytearray(65536)
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
                   payload: bytes = b"", timeout: float = DEFAULT_TIMEOUT_S,
                   head: bytes = b"") -> None:
        """Send one frame whose payload is head followed by payload.

        payload may be any buffer whose len() counts bytes, such as a byte
        memoryview of an array: it is written from where it lies, after the
        frame header and head, in one sendmsg and without a copy.
        """
        if self.closed:
            raise Recoverable(PEER_RESET, "connection closed")
        data = wire.encode_frame_head(msg_type, step, seq, len(head) + len(payload)) + head
        if self._black_holed():
            return  # swallow silently, peer sees nothing
        try:
            self.sock.settimeout(timeout)
            deadline = time.monotonic() + timeout
            sent = self.sock.sendmsg((data, payload))
            total = len(data) + len(payload)
            if sent < total:
                self._send_rest(data, payload, sent, deadline)
        except socket.timeout as exc:
            raise Recoverable(TIMEOUT, f"send to {self.peer}: {exc}") from exc
        except OSError as exc:
            self.close()
            raise Recoverable(PEER_RESET, f"send to {self.peer}: {exc}") from exc

    def _send_rest(self, first: bytes, second, sent: int, deadline: float) -> None:
        """Finish sending first then second after a full socket buffer cut
        their sendmsg short at sent bytes."""
        for part in (first, second):
            if sent < len(part):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("timed out")
                self.sock.settimeout(remaining)
                self.sock.sendall(memoryview(part)[sent:])
            sent = max(0, sent - len(part))

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
            self._fill(deadline)

    def recv_chunk_into(self, dest, generation: int, want: tuple[int, int, int],
                        max_len: int, timeout: float = DEFAULT_TIMEOUT_S) -> bool:
        """Receive one CHUNK_DATA frame's data straight into dest.

        want is the (partition, ring_step, chunk) expected next and
        len(dest) its data length in bytes; dest is a writable buffer whose
        len() counts bytes, such as a byte memoryview of an array. The
        header is checked before any data byte is read: another message
        type, data longer than max_len, or a chunk of this generation other
        than the one wanted is Fatal. A chunk of another generation, a
        straggler from an abandoned attempt, has its data read and dropped,
        and the call returns False.

        A timeout before the whole header is in leaves the stream intact,
        as in recv_frame. Once the header is consumed, an error or timeout
        closes the connection: the rest of the frame may still arrive, and
        nothing could find the next frame boundary after it.
        """
        if self.closed:
            raise Recoverable(PEER_RESET, "connection closed")
        deadline = time.monotonic() + timeout
        if self._black_holed():
            time.sleep(timeout)
            raise Recoverable(TIMEOUT, f"recv from {self.peer}: black-holed")
        buf = self._rxbuf
        head_len = wire.CHUNK_FRAME.size
        # A frame of another type, or one too short to hold a chunk header,
        # may end before 41 bytes, so it is judged as soon as its length
        # prefix and type are in.
        while len(buf) < head_len and (len(buf) < 5 or (
                buf[4] == wire.CHUNK_DATA and wire._LEN.unpack_from(buf)[0] >= head_len - 4)):
            self._fill(deadline)
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
        try:
            self._read_data(dest if current else None, n, deadline)
        except Recoverable:
            self.close()
            raise
        return current

    def _read_data(self, dest, n: int, deadline: float) -> None:
        """The next n bytes of the stream into dest, or dropped when dest is
        None. Bytes already buffered are taken first; the rest go from the
        socket straight into dest."""
        buf = self._rxbuf
        have = min(len(buf), n)
        if have:
            if dest is not None:
                dest[:have] = buf[:have]
            del buf[:have]
        pos = have
        while pos < n:
            if dest is None:
                pos += self._recv_into(memoryview(self._scratch)[:n - pos], deadline)
            else:
                pos += self._recv_into(dest[pos:], deadline)

    def _fill(self, deadline: float) -> None:
        k = self._recv_into(self._scratch, deadline)
        self._rxbuf += memoryview(self._scratch)[:k]

    def _recv_into(self, target, deadline: float) -> int:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise Recoverable(TIMEOUT, f"recv from {self.peer}: timed out")
        try:
            self.sock.settimeout(remaining)
            k = self.sock.recv_into(target)
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


class Listener:
    def __init__(self, host: str = "127.0.0.1", port: int = 0, backlog: int = 64):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind((host, port))
        self.sock.listen(backlog)
        self.host, self.port = self.sock.getsockname()

    def accept(self, timeout: float | None = None) -> socket.socket:
        self.sock.settimeout(timeout)
        try:
            sock, _ = self.sock.accept()
            return sock
        except socket.timeout as exc:
            raise Recoverable(TIMEOUT, "accept timed out") from exc

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ConnectionRouter:
    """Accept loop for a rank's single listener.

    Each inbound connection announces itself with a hello frame; the router
    parks it in a per-purpose bucket until the owning logic claims it with
    take(). Claiming transfers ownership; the router never reads a
    connection past its hello.
    """

    def __init__(self, listener: Listener, plan: FaultPlan | None = None):
        self.listener = listener
        self.plan = plan
        self._buckets: dict[int, list[tuple[Hello, Connection]]] = {}
        self._cv = threading.Condition()
        self._stop = False
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self) -> "ConnectionRouter":
        self._thread.start()
        return self

    def _accept_loop(self) -> None:
        while not self._stop:
            try:
                sock = self.listener.accept(timeout=0.2)
            except Recoverable:
                continue
            except OSError:
                return
            threading.Thread(target=self._greet, args=(sock,), daemon=True).start()

    def _greet(self, sock: socket.socket) -> None:
        conn = Connection(sock)
        try:
            frame = conn.recv_frame(timeout=DEFAULT_TIMEOUT_S, max_len=wire.HELLO_LEN)
            if frame.msg_type != wire.HEARTBEAT:
                raise Fatal(PROTOCOL_VIOLATION, f"expected hello, got {frame.name}")
            hello = Hello(*wire.decode_hello(frame.payload))
        except (Recoverable, Fatal) as exc:
            log.debug("router: dropping inbound connection: %s", exc)
            conn.close()
            return
        conn.peer = PeerAddress(hello.replica_id, hello.rank_id, "", 0)
        conn.purpose = hello.purpose
        conn.plan = self.plan
        with self._cv:
            self._buckets.setdefault(hello.purpose, []).append((hello, conn))
            self._cv.notify_all()

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

    def stop(self) -> None:
        self._stop = True
        self.listener.close()
        with self._cv:
            for bucket in self._buckets.values():
                for _, conn in bucket:
                    conn.close()
            self._buckets.clear()
            self._cv.notify_all()
