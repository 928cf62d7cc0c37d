"""Byte-exact radio framing and a seeded multi-channel medium.

Hub and vehicles exchange four message kinds over per-vehicle channels.
Frames carry a CRC-16/CCITT-FALSE over everything between the sync byte
and the checksum; the medium drops or delays frames deterministically
from a seeded generator.
"""

from __future__ import annotations

import binascii
import math
import random
import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .errors import (
    BadLength,
    BadSync,
    BadVersion,
    CrcMismatch,
    IoFailure,
    PayloadTooLarge,
    UnknownKind,
    VehicleLimitExceeded,
)
from .grid import NodeId

SYNC = 0x7E
VERSION = 0x01
MAX_PAYLOAD = 26
CHANNEL_COUNT = 128


class Channel(NamedTuple):
    index: int


class MessageKind(IntEnum):
    ACTIVATE = 0x01
    ASSIGN_DESTINATION = 0x02
    TELEMETRY = 0x03
    ACK = 0x04


@dataclass
class Message:
    kind: MessageKind
    vehicle_id: int
    dest: NodeId | None = None
    x_mm: int = 0
    y_mm: int = 0
    speed_mm_s: int = 0
    heading_cdeg: int = 0


def assign_channel(vehicle_id: int) -> Channel:
    """One distinct frequency per vehicle; the transceiver offers 128."""
    if not 0 <= vehicle_id < CHANNEL_COUNT:
        raise VehicleLimitExceeded(f"vehicle_id {vehicle_id} outside 0..{CHANNEL_COUNT - 1}")
    return Channel(vehicle_id)


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no reflection."""
    return binascii.crc_hqx(data, 0xFFFF)


def _payload_bytes(message: Message) -> bytes:
    if message.kind == MessageKind.ASSIGN_DESTINATION:
        if message.dest is None:
            raise PayloadTooLarge("ASSIGN_DESTINATION requires a destination node")
        return struct.pack(">HH", message.dest[0], message.dest[1])
    if message.kind == MessageKind.TELEMETRY:
        return struct.pack(
            ">HHHH", message.x_mm, message.y_mm, message.speed_mm_s, message.heading_cdeg
        )
    return b""


def encode(message: Message) -> bytes:
    """Serialize to the fixed wire layout; deterministic bytes."""
    try:
        payload = _payload_bytes(message)
    except struct.error:
        if message.kind == MessageKind.ASSIGN_DESTINATION:
            fields = {"dest[0]": message.dest[0], "dest[1]": message.dest[1]}
        else:
            names = ("x_mm", "y_mm", "speed_mm_s", "heading_cdeg")
            fields = {name: getattr(message, name) for name in names}
        name, value = next(
            (k, v) for k, v in fields.items() if not (isinstance(v, int) and 0 <= v <= 0xFFFF)
        )
        raise PayloadTooLarge(
            f"{message.kind.name} field {name} = {value!r} does not fit in 16 bits"
        ) from None
    if len(payload) > MAX_PAYLOAD:
        raise PayloadTooLarge(f"payload {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    try:
        body = bytes([VERSION, message.kind, message.vehicle_id, len(payload)]) + payload
    except ValueError:
        raise PayloadTooLarge(
            f"{message.kind.name} field vehicle_id = {message.vehicle_id!r} does not fit in 8 bits"
        ) from None
    return bytes([SYNC]) + body + struct.pack(">H", crc16_ccitt_false(body))


def decode(data: bytes) -> Message:
    """Inverse of encode; names the first failing check."""
    if len(data) < 1 or data[0] != SYNC:
        raise BadSync("missing 0x7E sync byte")
    if len(data) < 2:
        raise BadVersion("missing version byte")
    if data[1] != VERSION:
        raise BadVersion(f"unsupported version byte 0x{data[1]:02x}, expected 0x{VERSION:02x}")
    if len(data) < 7:
        raise BadLength(f"frame too short: {len(data)} bytes")
    length = data[4]
    if length > MAX_PAYLOAD or len(data) != 7 + length:
        raise BadLength(f"length byte {length} inconsistent with {len(data)}-byte frame")
    body = data[1:-2]
    (crc,) = struct.unpack(">H", data[-2:])
    if crc != crc16_ccitt_false(body):
        raise CrcMismatch("checksum does not match frame body")
    kind_byte, vehicle_id = data[2], data[3]
    try:
        kind = MessageKind(kind_byte)
    except ValueError:
        raise UnknownKind(f"unknown message kind 0x{kind_byte:02x}") from None
    payload = data[5:-2]
    if kind == MessageKind.ASSIGN_DESTINATION:
        if length != 4:
            raise BadLength(f"ASSIGN_DESTINATION payload must be 4 bytes, got {length}")
        ix, iy = struct.unpack(">HH", payload)
        return Message(kind, vehicle_id, dest=NodeId(ix, iy))
    if kind == MessageKind.TELEMETRY:
        if length != 8:
            raise BadLength(f"TELEMETRY payload must be 8 bytes, got {length}")
        x_mm, y_mm, speed, heading = struct.unpack(">HHHH", payload)
        return Message(kind, vehicle_id, x_mm=x_mm, y_mm=y_mm, speed_mm_s=speed, heading_cdeg=heading)
    if length != 0:
        raise BadLength(f"{kind.name} payload must be empty, got {length} bytes")
    return Message(kind, vehicle_id)


@dataclass
class Radio:
    channel: Channel
    inbox: list[tuple[int, int, bytes]] = field(default_factory=list)


class Medium:
    """Broadcast radio: each attached radio on a channel hears every send but its own.

    Loss is decided once per transmission (the whole broadcast drops), and
    latency is a constant tick delay, so a fixed seed replays identically.
    ``next_due`` is the earliest due tick of any frame still in an inbox, so
    a caller can skip polling on ticks when nothing is due.  Frames enter
    inboxes only through ``send``.
    """

    def __init__(self, loss_probability: float = 0.0, latency_ticks: int = 0, seed: int = 0,
                 capture: bool = False) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError(f"loss_probability must be in [0, 1], got {loss_probability}")
        if latency_ticks < 0:
            raise ValueError("latency_ticks must be >= 0")
        self.loss_probability = loss_probability
        self.latency_ticks = latency_ticks
        self._rng = random.Random(seed)
        self._radios: list[Radio] = []
        self._seq = 0
        # A lower bound on the earliest due tick in any inbox; exact again
        # once ``_stale`` is cleared by recomputing it.
        self._next_due = math.inf
        self._stale = False
        self.capture: list[tuple[int, int, bytes]] | None = [] if capture else None

    def attach(self, radio: Radio) -> Radio:
        self._radios.append(radio)
        return radio

    def send(self, sender: Radio, frame: bytes, current_tick: int) -> None:
        """Broadcast on the sender's channel to every radio but the sender."""
        channel = sender.channel
        if self.capture is not None:
            self.capture.append((current_tick, channel.index, frame))
        if self.loss_probability > 0.0 and self._rng.random() < self.loss_probability:
            return
        due = current_tick + self.latency_ticks
        self._seq += 1
        for radio in self._radios:
            if radio.channel == channel and radio is not sender:
                radio.inbox.append((due, self._seq, frame))
                if due < self._next_due:
                    self._next_due = due

    @property
    def next_due(self) -> float:
        """The earliest tick at which some inbox holds a due frame; inf if none."""
        if self._stale:
            self._next_due = min((entry[0] for radio in self._radios for entry in radio.inbox), default=math.inf)
            self._stale = False
        return self._next_due

    def poll(self, radio: Radio, current_tick: int) -> list[bytes]:
        """Frames due by now on the radio's channel, in send order."""
        if not radio.inbox:
            return []
        ready = [entry for entry in radio.inbox if entry[0] <= current_tick]
        if not ready:
            return []
        radio.inbox = [entry for entry in radio.inbox if entry[0] > current_tick]
        self._stale = True
        ready.sort(key=lambda e: (e[0], e[1]))
        return [frame for _, _, frame in ready]


def write_capture(records: list[tuple[int, int, bytes]], out_path) -> None:
    """Binary capture: (tick u32 BE, channel u8, frame bytes) per record."""
    try:
        with open(out_path, "wb") as fh:
            for tick, channel, frame in records:
                fh.write(struct.pack(">IB", tick, channel) + frame)
    except OSError as exc:
        raise IoFailure(f"cannot write capture to {out_path}: {exc}") from exc
