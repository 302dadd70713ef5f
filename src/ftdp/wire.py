"""Length-prefixed little-endian binary framing and payload codecs.

Frame layout:

    [u32 total_len][u8 msg_type][u64 step][u64 seq][payload]

total_len counts everything after itself (17 header bytes + payload).
`step` and `seq` are generic header fields; each message family assigns
them meaning (training step, chunk counters, loader cursor, ...).
An unknown msg_type is a protocol violation and is fatal: a peer that
sends garbage cannot be trusted with replicated state.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ftdp.errors import Fatal, PROTOCOL_VIOLATION

# Message tags (wire values are part of the external contract).
CHUNK_DATA = 0x01
CHUNK_ACK = 0x02
QUORUM_REPORT = 0x10
QUORUM_DECISION = 0x11
QUORUM_VOTE = 0x12
FETCH_STATE_REQ = 0x30
FETCH_STATE_RESP = 0x31
HEARTBEAT = 0x40

TAG_NAMES = {
    CHUNK_DATA: "CHUNK_DATA",
    CHUNK_ACK: "CHUNK_ACK",
    QUORUM_REPORT: "QUORUM_REPORT",
    QUORUM_DECISION: "QUORUM_DECISION",
    QUORUM_VOTE: "QUORUM_VOTE",
    FETCH_STATE_REQ: "FETCH_STATE_REQ",
    FETCH_STATE_RESP: "FETCH_STATE_RESP",
    HEARTBEAT: "HEARTBEAT",
}
KNOWN_TAGS = frozenset(TAG_NAMES)

_HEADER = struct.Struct("<BQQ")  # msg_type, step, seq
_LEN = struct.Struct("<I")
HEADER_LEN = _HEADER.size  # 17

# Ceiling on every frame, and the bound recv_frame applies when its caller
# cannot tell how large the next frame may be (control traffic). Data-link
# readers pass tighter bounds from their own state: ring chunk data at most
# chunk_bytes, a fetch response the size of the shard asked for. A reader of
# a fixed-size frame (a CHUNK_ACK, a hello, a QUORUM_REPORT or QUORUM_VOTE,
# a FETCH_STATE_REQ) passes its exact length, one of the *_LEN constants
# below. The ceiling itself must admit the naive ring baseline, which ships
# whole segments in one frame (up to 512 MiB at the largest benchmark size).
MAX_FRAME_LEN = (1 << 30) + 1024


@dataclass
class Frame:
    msg_type: int
    step: int
    seq: int
    payload: bytes

    @property
    def name(self) -> str:
        return TAG_NAMES.get(self.msg_type, f"0x{self.msg_type:02x}")


def encode_frame(msg_type: int, step: int, seq: int, payload: bytes = b"") -> bytes:
    """A whole frame as one bytes object: the reference for the bytes
    Connection.send_frame writes from its parts."""
    return encode_frame_head(msg_type, step, seq, len(payload)) + payload


def encode_frame_head(msg_type: int, step: int, seq: int, payload_len: int) -> bytes:
    """Length prefix and header of a frame whose payload_len payload bytes
    are sent separately."""
    total = HEADER_LEN + payload_len
    if total > MAX_FRAME_LEN:
        raise Fatal(PROTOCOL_VIOLATION, f"frame too large: {total}")
    return _LEN.pack(total) + _HEADER.pack(msg_type, step, seq)


def decode_frame(body: bytes) -> Frame:
    """Decode the bytes after the length prefix into a Frame."""
    if len(body) < HEADER_LEN:
        raise Fatal(PROTOCOL_VIOLATION, f"short frame: {len(body)} bytes")
    msg_type, step, seq = _HEADER.unpack_from(body, 0)
    if msg_type not in KNOWN_TAGS:
        raise Fatal(PROTOCOL_VIOLATION, f"unknown msg_type 0x{msg_type:02x}")
    return Frame(msg_type, step, seq, body[HEADER_LEN:])


# ---------------------------------------------------------------------------
# Payload codecs. Each returns/accepts plain tuples or dataclasses; the
# framing above is orthogonal.

_CHUNK_HDR = struct.Struct("<IIIII")  # generation, partition, ring_step, chunk, data_len
CHUNK_ACK_LEN = HEADER_LEN + _CHUNK_HDR.size  # a CHUNK_ACK frame after its length prefix

# A CHUNK_DATA frame's length prefix, frame header and chunk header as one
# struct (41 bytes), so the ring's receiving side parses all three with one
# call before it reads the chunk data straight into place.
CHUNK_FRAME = struct.Struct("<I" + _HEADER.format[1:] + _CHUNK_HDR.format[1:])


def encode_chunk_header(generation: int, partition_idx: int, ring_step: int, chunk_idx: int,
                        data_len: int) -> bytes:
    """The 20-byte chunk header: the start of a CHUNK_DATA payload, which
    data_len bytes of data follow, and the whole of a CHUNK_ACK payload,
    which acknowledges them."""
    return _CHUNK_HDR.pack(generation, partition_idx, ring_step, chunk_idx, data_len)


def encode_chunk(generation: int, partition_idx: int, ring_step: int, chunk_idx: int, data: bytes) -> bytes:
    """Reference codec of a CHUNK_DATA payload. The ring sends the same
    bytes as the chunk header followed by the data from its array."""
    return encode_chunk_header(generation, partition_idx, ring_step, chunk_idx, len(data)) + data


def decode_chunk(payload: bytes) -> tuple[int, int, int, int, bytes]:
    if len(payload) < _CHUNK_HDR.size:
        raise Fatal(PROTOCOL_VIOLATION, "short CHUNK_DATA payload")
    generation, partition_idx, ring_step, chunk_idx, data_len = _CHUNK_HDR.unpack_from(payload, 0)
    data = payload[_CHUNK_HDR.size:]
    if len(data) != data_len:
        raise Fatal(PROTOCOL_VIOLATION, f"chunk data_len {data_len} != {len(data)}")
    return generation, partition_idx, ring_step, chunk_idx, data


def decode_chunk_ack(payload: bytes) -> tuple[int, int, int, int, int]:
    if len(payload) != _CHUNK_HDR.size:
        raise Fatal(PROTOCOL_VIOLATION, "bad CHUNK_ACK payload")
    return _CHUNK_HDR.unpack(payload)


_REPORT = struct.Struct("<QQII")  # epoch, next_step, replica_id, incarnation
REPORT_LEN = HEADER_LEN + _REPORT.size  # a QUORUM_REPORT frame after its length prefix


def encode_report(epoch: int, next_step: int, replica_id: int, incarnation: int) -> bytes:
    return _REPORT.pack(epoch, next_step, replica_id, incarnation)


def decode_report(payload: bytes) -> tuple[int, int, int, int]:
    if len(payload) != _REPORT.size:
        raise Fatal(PROTOCOL_VIOLATION, "bad QUORUM_REPORT payload")
    return _REPORT.unpack(payload)


_DECISION_HEAD = struct.Struct("<QQIBI")  # epoch, target, generation, outcome, healthy count
# A decision's outcome byte: that of the vote on the epoch before it, which
# had no vote (None), committed (True) or retried (False).
_OUTCOMES = (None, True, False)


def encode_decision(epoch: int, target_step: int, generation: int,
                    healthy: list[int], behind: dict[int, int],
                    outcome: bool | None) -> bytes:
    out = _DECISION_HEAD.pack(epoch, target_step, generation, _OUTCOMES.index(outcome),
                              len(healthy))
    for rid in healthy:
        out += struct.pack("<I", rid)
    out += struct.pack("<I", len(behind))
    for rid, step in behind.items():
        out += struct.pack("<IQ", rid, step)
    return out


def decode_decision(payload: bytes
                    ) -> tuple[int, int, int, list[int], dict[int, int], bool | None]:
    try:
        epoch, target, generation, outcome, nh = _DECISION_HEAD.unpack_from(payload, 0)
        if outcome >= len(_OUTCOMES):
            raise Fatal(PROTOCOL_VIOLATION, f"bad QUORUM_DECISION outcome {outcome}")
        off = _DECISION_HEAD.size
        healthy = []
        for _ in range(nh):
            (rid,) = struct.unpack_from("<I", payload, off)
            healthy.append(rid)
            off += 4
        (nb,) = struct.unpack_from("<I", payload, off)
        off += 4
        behind = {}
        for _ in range(nb):
            rid, step = struct.unpack_from("<IQ", payload, off)
            behind[rid] = step
            off += 12
        if off != len(payload):
            raise Fatal(PROTOCOL_VIOLATION, "trailing bytes in QUORUM_DECISION")
        return epoch, target, generation, healthy, behind, _OUTCOMES[outcome]
    except struct.error as exc:
        raise Fatal(PROTOCOL_VIOLATION, f"bad QUORUM_DECISION payload: {exc}") from exc


_VOTE = struct.Struct("<QQIIBQ")  # epoch, target, replica_id, incarnation, ok, cursor
VOTE_LEN = HEADER_LEN + _VOTE.size  # a QUORUM_VOTE frame after its length prefix


def encode_vote(epoch: int, target: int, replica_id: int, incarnation: int,
                ok: bool, cursor: int) -> bytes:
    return _VOTE.pack(epoch, target, replica_id, incarnation, ok, cursor)


def decode_vote(payload: bytes) -> tuple[int, int, int, int, bool, int]:
    if len(payload) != _VOTE.size:
        raise Fatal(PROTOCOL_VIOLATION, "bad QUORUM_VOTE payload")
    epoch, target, replica_id, incarnation, ok, cursor = _VOTE.unpack(payload)
    return epoch, target, replica_id, incarnation, bool(ok), cursor


_FETCH_REQ = struct.Struct("<QI")  # step, rank
FETCH_REQ_LEN = HEADER_LEN + _FETCH_REQ.size  # a FETCH_STATE_REQ frame after its length prefix


def encode_fetch_req(step: int, rank: int) -> bytes:
    return _FETCH_REQ.pack(step, rank)


def decode_fetch_req(payload: bytes) -> tuple[int, int]:
    if len(payload) != _FETCH_REQ.size:
        raise Fatal(PROTOCOL_VIOLATION, "bad FETCH_STATE_REQ payload")
    return _FETCH_REQ.unpack(payload)


_FETCH_RESP = struct.Struct("<QII")  # step, rank, data_len


def encode_fetch_resp_head(step: int, rank: int, data_len: int) -> bytes:
    """A FETCH_STATE_RESP payload's header; data_len bytes of data follow."""
    return _FETCH_RESP.pack(step, rank, data_len)


def fetch_resp_frame_len(data_len: int) -> int:
    """Length after its prefix of a FETCH_STATE_RESP frame carrying data_len
    bytes of data."""
    return HEADER_LEN + _FETCH_RESP.size + data_len


def decode_fetch_resp(payload: bytes) -> tuple[int, int, memoryview]:
    if len(payload) < _FETCH_RESP.size:
        raise Fatal(PROTOCOL_VIOLATION, "short FETCH_STATE_RESP payload")
    step, rank, data_len = _FETCH_RESP.unpack_from(payload, 0)
    data = memoryview(payload)[_FETCH_RESP.size:]
    if len(data) != data_len:
        raise Fatal(PROTOCOL_VIOLATION, "FETCH_STATE_RESP data_len mismatch")
    return step, rank, data


# Connection hello, carried in a HEARTBEAT payload. Purposes route inbound
# connections on a process's single listener.
HELLO_RING = 1
HELLO_FETCH = 4
HELLO_QUORUM = 5

_HELLO = struct.Struct("<BIIIQ")  # purpose, replica_id, rank_id, incarnation, aux
HELLO_LEN = HEADER_LEN + _HELLO.size  # a hello's HEARTBEAT frame after its length prefix


def encode_hello(purpose: int, replica_id: int, rank_id: int, incarnation: int, aux: int = 0) -> bytes:
    return _HELLO.pack(purpose, replica_id, rank_id, incarnation, aux)


def decode_hello(payload: bytes) -> tuple[int, int, int, int, int]:
    if len(payload) != _HELLO.size:
        raise Fatal(PROTOCOL_VIOLATION, "bad hello payload")
    return _HELLO.unpack(payload)
