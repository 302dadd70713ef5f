"""Frame and payload codec tests."""

import numpy as np
import pytest

from ftdp import wire
from ftdp.errors import Fatal, PROTOCOL_VIOLATION


def test_frame_roundtrip_basic():
    raw = wire.encode_frame(wire.CHUNK_DATA, step=7, seq=42, payload=b"abc")
    # length prefix counts header + payload
    assert int.from_bytes(raw[:4], "little") == wire.HEADER_LEN + 3
    frame = wire.decode_frame(raw[4:])
    assert frame.msg_type == wire.CHUNK_DATA
    assert frame.step == 7
    assert frame.seq == 42
    assert frame.payload == b"abc"


def test_frame_roundtrip_randomized():
    rng = np.random.default_rng(101)
    tags = sorted(wire.KNOWN_TAGS)
    for _ in range(300):
        tag = tags[rng.integers(len(tags))]
        step = int(rng.integers(0, 2**63))
        seq = int(rng.integers(0, 2**63))
        payload = rng.bytes(int(rng.integers(0, 4096)))
        frame = wire.decode_frame(wire.encode_frame(tag, step, seq, payload)[4:])
        assert (frame.msg_type, frame.step, frame.seq, frame.payload) == (tag, step, seq, payload)


def test_unknown_tag_is_fatal_protocol_violation():
    raw = wire.encode_frame(wire.HEARTBEAT, 0, 0, b"")
    body = bytearray(raw[4:])
    body[0] = 0x77  # not a known tag
    with pytest.raises(Fatal) as ei:
        wire.decode_frame(bytes(body))
    assert ei.value.reason == PROTOCOL_VIOLATION


def test_short_frame_is_fatal():
    with pytest.raises(Fatal):
        wire.decode_frame(b"\x01\x00\x00")


def test_chunk_payload_roundtrip():
    data = b"\x00\x01\x02\x03" * 5
    payload = wire.encode_chunk(3, 1, 4, 2, data)
    assert wire.decode_chunk(payload) == (3, 1, 4, 2, data)
    ack = wire.encode_chunk_header(3, 1, 4, 2, len(data))
    assert wire.decode_chunk_ack(ack) == (3, 1, 4, 2, len(data))


def test_chunk_length_mismatch_is_fatal():
    payload = wire.encode_chunk(1, 0, 0, 0, b"abcd")
    with pytest.raises(Fatal):
        wire.decode_chunk(payload[:-1])


def test_report_and_decision_roundtrip():
    payload = wire.encode_report(9, 100, 3, 2)
    assert wire.decode_report(payload) == (9, 100, 3, 2)

    dec = wire.encode_decision(9, 100, 5, [0, 1, 2], {3: 96})
    assert wire.decode_decision(dec) == (9, 100, 5, [0, 1, 2], {3: 96})

    dec = wire.encode_decision(1, 0, 1, [], {})
    assert wire.decode_decision(dec) == (1, 0, 1, [], {})


def test_decision_trailing_garbage_is_fatal():
    dec = wire.encode_decision(9, 100, 5, [0, 1], {})
    with pytest.raises(Fatal):
        wire.decode_decision(dec + b"\x00")


def test_2pc_payload_roundtrip():
    payload = wire.encode_2pc(50, 1, 1)
    assert wire.decode_2pc(payload) == (50, 1, 1)


def test_fetch_payloads_roundtrip():
    req = wire.encode_fetch_req(99, 1)
    assert wire.decode_fetch_req(req) == (99, 1)
    with pytest.raises(Fatal):
        wire.decode_fetch_req(req + bytes(8))  # the old four-field request
    resp = wire.encode_fetch_resp(99, 1, b"shardbytes")
    assert wire.decode_fetch_resp(resp) == (99, 1, b"shardbytes")


def test_hello_roundtrip():
    payload = wire.encode_hello(wire.HELLO_RING, 2, 1, 4, aux=17)
    assert wire.decode_hello(payload) == (wire.HELLO_RING, 2, 1, 4, 17)
