"""Wire framing, CRC, channel assignment, and the lossy broadcast medium."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from swarmport.errors import (
    BadLength,
    BadSync,
    BadVersion,
    CrcMismatch,
    DecodeError,
    IoFailure,
    PayloadTooLarge,
    UnknownKind,
    VehicleLimitExceeded,
)
from swarmport.grid import NodeId
from swarmport.rfnet import (
    CHANNEL_COUNT,
    MAX_PAYLOAD,
    SYNC,
    VERSION,
    Channel,
    Medium,
    Message,
    MessageKind,
    Radio,
    assign_channel,
    crc16_ccitt_false,
    decode,
    encode,
    write_capture,
)


# -------------------------------------------------------------------- crc


def bitwise_crc16_ccitt_false(data):
    """Reference CRC-16/CCITT-FALSE, one bit at a time: poly 0x1021, init 0xFFFF."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


def test_crc_check_vector():
    assert bitwise_crc16_ccitt_false(b"123456789") == 0x29B1
    assert crc16_ccitt_false(b"123456789") == 0x29B1


def test_crc_empty_input_is_init_value():
    assert crc16_ccitt_false(b"") == 0xFFFF


@given(st.binary(max_size=64))
def test_crc_matches_bitwise_oracle(data):
    assert crc16_ccitt_false(data) == bitwise_crc16_ccitt_false(data)


# ------------------------------------------------------------------ codec


def test_ack_frame_layout():
    # sync, version, kind, vehicle_id, length, crc16 big-endian
    frame = encode(Message(MessageKind.ACK, 5))
    assert frame.hex() == "7e01040500d141"
    assert frame[0] == 0x7E
    assert frame[1] == 0x01
    assert frame[2] == MessageKind.ACK
    assert frame[3] == 5
    assert frame[4] == 0
    assert struct.unpack(">H", frame[5:])[0] == bitwise_crc16_ccitt_false(frame[1:5])


def test_assign_frame_carries_node_as_two_u16():
    frame = encode(Message(MessageKind.ASSIGN_DESTINATION, 1, dest=NodeId(7, 2)))
    assert frame[4] == 4
    assert struct.unpack(">HH", frame[5:9]) == (7, 2)


def test_telemetry_frame_fields():
    msg = Message(MessageKind.TELEMETRY, 1, x_mm=1750, y_mm=500, speed_mm_s=100, heading_cdeg=9000)
    frame = encode(msg)
    assert frame[4] == 8
    assert struct.unpack(">HHHH", frame[5:13]) == (1750, 500, 100, 9000)
    assert decode(frame) == msg


@pytest.mark.parametrize(
    "msg",
    [
        Message(MessageKind.ACTIVATE, 0),
        Message(MessageKind.ACK, 127),
        Message(MessageKind.ASSIGN_DESTINATION, 3, dest=NodeId(0, 0)),
        Message(MessageKind.ASSIGN_DESTINATION, 3, dest=NodeId(65535, 65535)),
        Message(MessageKind.TELEMETRY, 9, x_mm=0, y_mm=0, speed_mm_s=0, heading_cdeg=0),
        Message(MessageKind.TELEMETRY, 9, x_mm=65535, y_mm=1, speed_mm_s=2, heading_cdeg=35999),
    ],
)
def test_decode_encode_identity(msg):
    assert decode(encode(msg)) == msg


@given(
    st.sampled_from([MessageKind.ACTIVATE, MessageKind.ACK]),
    st.integers(0, 255),
)
def test_plain_kinds_round_trip(kind, vid):
    assert decode(encode(Message(kind, vid))) == Message(kind, vid)


@given(st.integers(0, 255), st.integers(0, 65535), st.integers(0, 65535))
def test_assign_round_trips(vid, ix, iy):
    msg = Message(MessageKind.ASSIGN_DESTINATION, vid, dest=NodeId(ix, iy))
    assert decode(encode(msg)) == msg


def test_assign_requires_destination():
    with pytest.raises(PayloadTooLarge):
        encode(Message(MessageKind.ASSIGN_DESTINATION, 1))


def test_position_beyond_u16_millimetres_names_the_field():
    # a vehicle 68 m east on a 70 m x 2 m terrain
    msg = Message(MessageKind.TELEMETRY, 0, x_mm=68_000, y_mm=0)
    with pytest.raises(PayloadTooLarge, match="x_mm = 68000"):
        encode(msg)


def test_destination_beyond_u16_names_the_field():
    with pytest.raises(PayloadTooLarge, match=r"dest\[1\] = 70000"):
        encode(Message(MessageKind.ASSIGN_DESTINATION, 1, dest=NodeId(3, 70_000)))


@pytest.mark.parametrize("vid", [256, 300, -1])
def test_vehicle_id_beyond_u8_names_the_field(vid):
    with pytest.raises(PayloadTooLarge, match=rf"^ACK field vehicle_id = {vid} does not fit in 8 bits$"):
        encode(Message(MessageKind.ACK, vid))


# ------------------------------------------------------- decode error order


def good_frame():
    return bytearray(encode(Message(MessageKind.TELEMETRY, 1, x_mm=10, y_mm=20, speed_mm_s=30, heading_cdeg=40)))


def test_bad_sync_first():
    frame = good_frame()
    frame[0] = 0x7F
    with pytest.raises(BadSync):
        decode(bytes(frame))
    with pytest.raises(BadSync):
        decode(b"")


def test_bad_version_second():
    frame = good_frame()
    frame[1] = 0x02
    with pytest.raises(BadVersion, match="^unsupported version byte 0x02, expected 0x01$"):
        decode(bytes(frame))
    with pytest.raises(BadVersion, match="^missing version byte$"):
        decode(bytes(frame[:1]))


def test_truncated_frame_is_bad_length():
    frame = good_frame()
    with pytest.raises(BadLength):
        decode(bytes(frame[:5]))
    with pytest.raises(BadLength):
        decode(bytes(frame[:-1]))


def test_oversize_length_byte_is_bad_length():
    frame = good_frame()
    frame[4] = MAX_PAYLOAD + 1
    with pytest.raises(BadLength):
        decode(bytes(frame))


def test_crc_checked_before_kind():
    frame = good_frame()
    frame[2] = 0x77  # unknown kind AND now-stale crc
    with pytest.raises(CrcMismatch):
        decode(bytes(frame))


def test_unknown_kind_with_valid_crc():
    body = bytes([0x01, 0x77, 0x05, 0x00])
    frame = bytes([0x7E]) + body + struct.pack(">H", crc16_ccitt_false(body))
    with pytest.raises(UnknownKind):
        decode(frame)


def test_kind_specific_payload_length_enforced():
    # ASSIGN with a 2-byte payload, crc recomputed to be valid
    body = bytes([0x01, MessageKind.ASSIGN_DESTINATION, 0x05, 0x02, 0x00, 0x07])
    frame = bytes([0x7E]) + body + struct.pack(">H", crc16_ccitt_false(body))
    with pytest.raises(BadLength):
        decode(frame)
    # ACK must have an empty payload
    body = bytes([0x01, MessageKind.ACK, 0x05, 0x01, 0xAA])
    frame = bytes([0x7E]) + body + struct.pack(">H", crc16_ccitt_false(body))
    with pytest.raises(BadLength):
        decode(frame)


def test_flipped_payload_bit_fails_crc():
    frame = good_frame()
    frame[6] ^= 0x01
    with pytest.raises(CrcMismatch):
        decode(bytes(frame))


@settings(max_examples=500, deadline=None)
@given(st.binary(max_size=40))
def test_decode_of_random_bytes_raises_only_decode_errors(data):
    try:
        msg = decode(data)
    except DecodeError:
        return
    assert encode(msg) == data


@settings(max_examples=500, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.binary(max_size=MAX_PAYLOAD + 4))
def test_decode_of_framed_random_kind_and_length_raises_only_decode_errors(kind, vid, length, payload):
    """Sync, version and CRC are right; the kind and length byte are random
    and the length byte need not match the payload.  A frame that decodes
    must encode back to itself."""
    body = bytes([VERSION, kind, vid, length]) + payload
    frame = bytes([SYNC]) + body + struct.pack(">H", crc16_ccitt_false(body))
    try:
        msg = decode(frame)
    except DecodeError:
        return
    assert encode(msg) == frame


# ----------------------------------------------------------------- channels


def test_assign_channel_maps_id_to_index():
    assert assign_channel(0) == Channel(0)
    assert assign_channel(127) == Channel(127)


@pytest.mark.parametrize("vid", [-1, 128, 500])
def test_assign_channel_rejects_out_of_range(vid):
    with pytest.raises(VehicleLimitExceeded):
        assign_channel(vid)


def test_channel_count_is_128():
    assert CHANNEL_COUNT == 128


# ------------------------------------------------------------------ medium


def test_only_same_channel_radios_hear_a_send():
    medium = Medium()
    a = medium.attach(Radio(Channel(3)))
    b = medium.attach(Radio(Channel(4)))
    medium.send(Radio(Channel(3)), b"frame", 0)
    assert medium.poll(a, 0) == [b"frame"]
    assert medium.poll(b, 0) == []


def test_sender_does_not_hear_itself_and_draws_as_before():
    """The sender's own radio is skipped; capture, loss draws and sequence
    numbers match a medium where the same frames come from a radio that is
    not attached, so there is nothing to skip."""
    skipping = Medium(loss_probability=0.5, seed=11, capture=True)
    sender = skipping.attach(Radio(Channel(5)))
    peer = skipping.attach(Radio(Channel(5)))
    plain = Medium(loss_probability=0.5, seed=11, capture=True)
    plain_peer = plain.attach(Radio(Channel(5)))
    outsider = Radio(Channel(5))
    for tick in range(100):
        skipping.send(sender, bytes([tick]), tick)
        plain.send(outsider, bytes([tick]), tick)
    assert sender.inbox == []
    assert peer.inbox == plain_peer.inbox
    assert 20 < len(peer.inbox) < 80
    assert skipping.capture == plain.capture
    assert len(skipping.capture) == 100
    assert skipping._rng.random() == plain._rng.random()


def test_poll_returns_frames_in_send_order():
    medium = Medium()
    radio = medium.attach(Radio(Channel(0)))
    medium.send(Radio(Channel(0)), b"one", 0)
    medium.send(Radio(Channel(0)), b"two", 0)
    assert medium.poll(radio, 0) == [b"one", b"two"]
    assert medium.poll(radio, 0) == []


def test_latency_delays_delivery():
    medium = Medium(latency_ticks=5)
    radio = medium.attach(Radio(Channel(0)))
    medium.send(Radio(Channel(0)), b"x", 10)
    assert medium.poll(radio, 14) == []
    assert medium.poll(radio, 15) == [b"x"]


def test_next_due_tracks_the_earliest_frame_in_any_inbox():
    medium = Medium(latency_ticks=3)
    a = medium.attach(Radio(Channel(1)))
    b = medium.attach(Radio(Channel(2)))
    lonely = Radio(Channel(9))
    assert medium.next_due == math.inf
    medium.send(lonely, b"unheard", 0)  # nobody listens on channel 9
    assert medium.next_due == math.inf
    medium.send(Radio(Channel(1)), b"a5", 5)
    medium.send(Radio(Channel(2)), b"b2", 2)
    assert medium.next_due == 5
    assert medium.poll(a, 4) == [] and medium.poll(b, 4) == []
    assert medium.next_due == 5
    assert medium.poll(b, 5) == [b"b2"]
    assert medium.next_due == 8  # a's frame is still waiting
    medium.send(Radio(Channel(2)), b"b6", 6)
    assert medium.poll(a, 8) == [b"a5"]
    assert medium.next_due == 9
    assert medium.poll(b, 9) == [b"b6"]
    assert medium.next_due == math.inf


def test_lost_frames_leave_next_due_alone():
    medium = Medium(loss_probability=0.5, latency_ticks=2, seed=3)
    radio = medium.attach(Radio(Channel(0)))
    for tick in range(40):
        medium.send(Radio(Channel(0)), bytes([tick]), tick)
        assert medium.next_due == min((entry[0] for entry in radio.inbox), default=math.inf)
        medium.poll(radio, tick)
        assert medium.next_due == min((entry[0] for entry in radio.inbox), default=math.inf)


def test_loss_pattern_replays_with_same_seed():
    def pattern(seed):
        medium = Medium(loss_probability=0.5, seed=seed)
        radio = medium.attach(Radio(Channel(0)))
        got = []
        for tick in range(200):
            medium.send(Radio(Channel(0)), bytes([tick % 256]), tick)
            got.extend(medium.poll(radio, tick))
        return got

    assert pattern(1234) == pattern(1234)
    assert pattern(1234) != pattern(99)


def test_loss_bounds_validated():
    with pytest.raises(ValueError):
        Medium(loss_probability=-0.1)
    with pytest.raises(ValueError):
        Medium(loss_probability=1.5)
    with pytest.raises(ValueError):
        Medium(latency_ticks=-1)


def test_capture_records_frames_before_loss():
    medium = Medium(loss_probability=1.0, capture=True)
    sender = medium.attach(Radio(Channel(2)))
    medium.send(sender, b"gone", 7)
    assert medium.capture == [(7, 2, b"gone")]


def test_write_capture_format(tmp_path):
    path = tmp_path / "capture.bin"
    write_capture([(7, 2, b"ab"), (8, 3, b"c")], path)
    data = path.read_bytes()
    assert data == struct.pack(">IB", 7, 2) + b"ab" + struct.pack(">IB", 8, 3) + b"c"


def test_write_capture_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        write_capture([(0, 0, b"")], tmp_path / "no" / "dir" / "x.bin")
