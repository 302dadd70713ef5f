"""State transfer and durability.

Three cooperating pieces:

* In-memory snapshots, retention exactly one: at every commit (and once at
  startup for the initial state) each rank keeps its shard of the latest
  committed step so a lagging replica can fetch state peer-to-peer while
  the rest of the group keeps training. A fetch that arrives after the
  group moved on is answered with what is available; the fetcher treats
  the mismatch as "catch up next step" rather than an error.

* Persistent checkpoints, written by one replica at an interval: each rank
  writes its shard to a temp file and renames it into place, and the
  manifest (the commit point for the whole checkpoint) is renamed last, so
  a crash mid-write can never produce a loadable half-checkpoint.

* The data-loader ledger: a single append-only text file with one
  "step,replica_id,cursor" line per replica commit. Appends are single
  O_APPEND writes, parsing tolerates a torn final line, and a validator
  checks the exactly-once contract: per replica, steps strictly increase
  and every line advances the cursor by exactly the rank count.
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
from dataclasses import dataclass

from ftdp import transport, wire
from ftdp.errors import (
    Fatal,
    InvariantViolation,
    PEER_DOWN,
    PROTOCOL_VIOLATION,
    Recoverable,
)

MAGIC = b"PAFTCKPT"
_SHARD_HDR = struct.Struct("<IQIQQ")  # version, step, rank, params_len, momentum_len
_FETCH_BODY = struct.Struct("<QQ")  # params_len, momentum_len
VERSION = 1


class SnapshotUnavailable(Exception):
    """The donor no longer (or does not yet) hold the requested step."""

    def __init__(self, available: int | None):
        super().__init__(f"snapshot unavailable (donor holds {available})")
        self.available = available


class SnapshotStore:
    """Latest committed shard for this rank; capture replaces the previous."""

    def __init__(self):
        self._lock = threading.Lock()
        self._step: int | None = None
        self._params = b""
        self._momentum = b""

    def capture(self, step: int, params: bytes, momentum: bytes) -> None:
        with self._lock:
            self._step = step
            self._params = bytes(params)
            self._momentum = bytes(momentum)

    @property
    def step(self) -> int | None:
        with self._lock:
            return self._step

    def get(self, step: int) -> tuple[bytes, bytes]:
        with self._lock:
            if self._step != step:
                raise SnapshotUnavailable(self._step)
            return self._params, self._momentum


def serve_fetches(router: transport.ConnectionRouter, store: SnapshotStore,
                  stop: threading.Event, pred=None) -> None:
    """Thread target: answer one state request per inbound fetch connection.

    pred filters hellos, so several servers (one per rank, each with its own
    store) can share one router without stealing each other's requests.
    """
    while not stop.is_set():
        try:
            _hello, conn = router.take(wire.HELLO_FETCH, pred, timeout=0.25)
        except Recoverable:
            continue
        threading.Thread(target=_handle_fetch, args=(conn, store), daemon=True).start()


def _handle_fetch(conn: transport.Connection, store: SnapshotStore) -> None:
    try:
        frame = conn.recv_frame(timeout=transport.DEFAULT_TIMEOUT_S,
                                max_len=wire.FETCH_REQ_LEN)
        if frame.msg_type != wire.FETCH_STATE_REQ:
            return
        step, rank = wire.decode_fetch_req(frame.payload)
        try:
            params, momentum = store.get(step)
            body = _FETCH_BODY.pack(len(params), len(momentum)) + params + momentum
            resp = wire.encode_fetch_resp(step, rank, body)
        except SnapshotUnavailable as exc:
            resp = wire.encode_fetch_resp(exc.available or 0, rank, b"")
        conn.send_frame(wire.FETCH_STATE_RESP, step, 0, resp)
    except (Recoverable, Fatal):
        pass
    finally:
        conn.close()


def fetch_shard(addr: transport.PeerAddress, step: int, rank: int,
                replica_id: int, incarnation: int, shard_len: int,
                timeout_s: float = transport.DEFAULT_TIMEOUT_S,
                plan: transport.FaultPlan | None = None) -> tuple[bytes, bytes]:
    """Pull (params, momentum) for one rank's shard of a committed step.

    shard_len is the shard's length in float32 elements; a response frame
    longer than such a shard needs is Fatal before it is buffered.
    """
    conn = transport.connect(addr, wire.HELLO_FETCH,
                             (replica_id, rank, incarnation, 0),
                             deadline_s=timeout_s, plan=plan)
    try:
        conn.send_frame(wire.FETCH_STATE_REQ, step, 0,
                        wire.encode_fetch_req(step, rank), timeout=timeout_s)
        body_len = _FETCH_BODY.size + 2 * 4 * shard_len  # params and momentum, float32
        frame = conn.recv_frame(timeout=timeout_s,
                                max_len=wire.fetch_resp_frame_len(body_len))
        if frame.msg_type != wire.FETCH_STATE_RESP:
            raise Fatal(PROTOCOL_VIOLATION, f"expected FETCH_STATE_RESP, got {frame.name}")
        got_step, got_rank, body = wire.decode_fetch_resp(frame.payload)
        if got_step != step or not body:
            raise SnapshotUnavailable(got_step or None)
        if got_rank != rank:
            raise Fatal(PROTOCOL_VIOLATION, f"fetch rank mismatch: {got_rank} != {rank}")
        if len(body) < _FETCH_BODY.size:
            raise Fatal(PROTOCOL_VIOLATION, "short fetch body")
        plen, mlen = _FETCH_BODY.unpack_from(body, 0)
        if _FETCH_BODY.size + plen + mlen != len(body):
            raise Fatal(PROTOCOL_VIOLATION, "fetch body length mismatch")
        params = body[_FETCH_BODY.size:_FETCH_BODY.size + plen]
        return params, body[_FETCH_BODY.size + plen:]
    finally:
        conn.close()


def pick_donor(healthy: list[int] | tuple[int, ...], self_replica: int,
               rank: int, attempt: int = 0) -> int:
    """Spread fetch load: rank r of a lagging replica pulls from healthy
    donor (r + attempt) mod H, skipping itself. Retries rotate donors."""
    donors = sorted(rid for rid in healthy if rid != self_replica)
    if not donors:
        raise Recoverable(PEER_DOWN, "no donors available")
    return donors[(rank + attempt) % len(donors)]


# ------------------------------------------------------------- persistence

def shard_path(ckpt_dir: str, step: int, rank: int) -> str:
    return os.path.join(ckpt_dir, f"state_{step:08d}_rank{rank}.bin")


def manifest_path(ckpt_dir: str, step: int) -> str:
    return os.path.join(ckpt_dir, f"state_{step:08d}.json")


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.rename(tmp, path)


def write_shard(ckpt_dir: str, step: int, rank: int,
                params: bytes, momentum: bytes) -> str:
    os.makedirs(ckpt_dir, exist_ok=True)
    hdr = MAGIC + _SHARD_HDR.pack(VERSION, step, rank, len(params), len(momentum))
    path = shard_path(ckpt_dir, step, rank)
    _atomic_write(path, hdr + bytes(params) + bytes(momentum))
    return path


def read_shard(ckpt_dir: str, step: int, rank: int) -> tuple[bytes, bytes]:
    path = shard_path(ckpt_dir, step, rank)
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:len(MAGIC)] != MAGIC:
        raise Fatal(PROTOCOL_VIOLATION, f"bad checkpoint magic in {path}")
    version, got_step, got_rank, plen, mlen = _SHARD_HDR.unpack_from(blob, len(MAGIC))
    if version != VERSION:
        raise Fatal(PROTOCOL_VIOLATION, f"unsupported checkpoint version {version}")
    if (got_step, got_rank) != (step, rank):
        raise Fatal(PROTOCOL_VIOLATION,
                    f"checkpoint header ({got_step},{got_rank}) != ({step},{rank})")
    off = len(MAGIC) + _SHARD_HDR.size
    if off + plen + mlen != len(blob):
        raise Fatal(PROTOCOL_VIOLATION, f"truncated checkpoint shard {path}")
    return blob[off:off + plen], blob[off + plen:]


def write_manifest(ckpt_dir: str, step: int, n_ranks: int, dims: tuple[int, ...],
                   cursors: dict[int, int]) -> str:
    doc = {
        "magic": MAGIC.decode(),
        "version": VERSION,
        "step": step,
        "n_ranks": n_ranks,
        "dims": list(dims),
        "cursors": {str(rid): int(cur) for rid, cur in sorted(cursors.items())},
    }
    path = manifest_path(ckpt_dir, step)
    _atomic_write(path, json.dumps(doc, indent=1).encode())
    return path


_MANIFEST_RE = re.compile(r"^state_(\d{8})\.json$")


def find_latest(ckpt_dir: str) -> tuple[int, dict] | None:
    """Newest step whose manifest parses and whose shard files all exist."""
    if not os.path.isdir(ckpt_dir):
        return None
    steps = sorted(
        (int(m.group(1)) for name in os.listdir(ckpt_dir)
         if (m := _MANIFEST_RE.match(name))),
        reverse=True)
    for step in steps:
        try:
            with open(manifest_path(ckpt_dir, step), "rb") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if doc.get("magic") != MAGIC.decode() or doc.get("step") != step:
            continue
        if all(os.path.exists(shard_path(ckpt_dir, step, r))
               for r in range(doc.get("n_ranks", 0))):
            return step, doc
    return None


# ------------------------------------------------------------------ ledger

class LoaderLedger:
    """Append-only consumption record shared by every replica in a run."""

    def __init__(self, path: str):
        self.path = path
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def append(self, step: int, replica_id: int, cursor: int) -> None:
        os.write(self._fd, f"{step},{replica_id},{cursor}\n".encode())

    def close(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


def parse_ledger(path: str) -> list[tuple[int, int, int]]:
    """(step, replica_id, cursor) triples; a torn trailing line (crash mid
    write) is dropped, anything else malformed is an invariant violation."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return []
    lines = blob.split(b"\n")
    if lines and lines[-1] != b"":
        lines = lines[:-1]  # torn tail: not yet durable, ignore
    else:
        lines = lines[:-1] if lines else lines
    out = []
    for ln, raw in enumerate(lines, 1):
        parts = raw.decode(errors="replace").split(",")
        if len(parts) != 3:
            raise InvariantViolation(f"{path}:{ln}: malformed ledger line {raw!r}")
        try:
            out.append((int(parts[0]), int(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise InvariantViolation(f"{path}:{ln}: {exc}") from exc
    return out


def validate_exactly_once(entries: list[tuple[int, int, int]], ranks_per_replica: int,
                          initial_cursors: dict[int, int] | None = None) -> None:
    """Every committed line must advance its replica's cursor by exactly the
    rank count from the previous line (or from the restored starting point),
    with strictly increasing steps. Anything else means a batch was skipped
    or consumed twice."""
    last_step: dict[int, int] = {}
    cursors = dict(initial_cursors or {})
    for step, rid, cursor in entries:
        prev_cursor = cursors.get(rid, 0)
        prev_step = last_step.get(rid, -1)
        if step <= prev_step:
            raise InvariantViolation(
                f"replica {rid}: step {step} after step {prev_step}")
        if cursor != prev_cursor + ranks_per_replica:
            raise InvariantViolation(
                f"replica {rid} step {step}: cursor {cursor} != "
                f"{prev_cursor} + {ranks_per_replica}")
        cursors[rid] = cursor
        last_step[rid] = step
    return None


def restore_cursors(ledger_path: str, ckpt_step: int, num_replicas: int) -> dict[int, int]:
    """Cursor of each replica as of the checkpointed step: the last line at
    or before it. Replicas with no line by then had consumed nothing."""
    cursors = {rid: 0 for rid in range(num_replicas)}
    for step, rid, cursor in parse_ledger(ledger_path):
        if step <= ckpt_step and rid in cursors:
            cursors[rid] = cursor
    return cursors
