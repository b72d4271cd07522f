"""The frame layer's wire format, on every session and I/O style.

Both TCP substrates speak the frames of :mod:`repro.net.frames`: a 4-byte
big-endian length, then the payload, passed through the connection's
session (plain, or the AEAD session of :mod:`repro.net.secure`).  The
parametrised suite runs each property over session {plain, secure} × I/O
{blocking socket, asyncio stream}: round trip, clean EOF → ``None``,
truncation at every cut → :class:`PacketFormatError`, and a declared
oversize → :class:`PacketFormatError`.  The hypothesis tests drive the aio
backend's payloads — :meth:`Packet.to_bytes` and raw blobs — through plain
frames.
"""

import asyncio
import copy
import hashlib
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PacketFormatError
from repro.core.packet import Packet
from repro.net.frames import (
    FRAME_HEADER,
    MAX_FRAME_BYTES,
    PLAIN,
    encode_frame,
    read_frame,
    read_frame_blocking,
)
from repro.net.secure import HandshakeState, StaticKeyPair

from strategies import packets

SESSIONS = ("plain", "secure")
IOS = ("socket", "stream")


def session_pair(kind: str):
    """A connected (sender, receiver) session pair of the given kind."""
    if kind == "plain":
        return PLAIN, PLAIN
    counter = iter(range(1, 1 << 20))

    def entropy(size: int) -> bytes:
        return hashlib.sha256(b"frames-%d" % next(counter)).digest()[:size]

    server = StaticKeyPair.generate(entropy)
    client = StaticKeyPair.generate(entropy)
    initiator = HandshakeState.initiator(client, server.public, entropy=entropy)
    responder = HandshakeState.responder(server, entropy=entropy)
    responder.read_act_one(initiator.write_act_one())
    initiator.read_act_two(responder.write_act_two())
    responder.read_act_three(initiator.write_act_three())
    return initiator.session(), responder.session()


def read_all(wire: bytes, session=PLAIN, io: str = "stream") -> list[bytes]:
    """Every frame of ``wire``, read until the clean EOF that must end it."""
    if io == "stream":

        async def drain() -> list[bytes]:
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            frames = []
            while (frame := await read_frame(reader, session)) is not None:
                frames.append(frame)
            return frames

        return asyncio.run(drain())
    sender, receiver = socket.socketpair()
    with sender, receiver:
        receiver.settimeout(10)
        sender.sendall(wire)
        sender.shutdown(socket.SHUT_WR)
        frames = []
        while (frame := read_frame_blocking(receiver, session)) is not None:
            frames.append(frame)
        return frames


# -- every session × every I/O style ------------------------------------------------

on_every_wire = pytest.mark.parametrize(
    ("kind", "io"), [(kind, io) for kind in SESSIONS for io in IOS]
)


@on_every_wire
def test_round_trip_and_clean_eof(kind, io):
    sender, receiver = session_pair(kind)
    # Empty, small and multi-chunk (> one 64 KiB socket read) payloads.
    payloads = [b"hello overlay", b"", bytes(range(256)) * 300]
    wire = b"".join(sender.encrypt_frame(payload) for payload in payloads)
    assert read_all(wire, receiver, io) == payloads
    # Clean EOF between frames: no frame, and no error (the peer closed).
    assert read_all(b"", receiver, io) == []


@on_every_wire
@given(payload=st.binary(max_size=48))
@settings(max_examples=15, deadline=None)
def test_truncation_at_every_cut_is_rejected(kind, io, payload):
    sender, receiver = session_pair(kind)
    frame = sender.encrypt_frame(payload)
    for cut in range(1, len(frame)):
        with pytest.raises(PacketFormatError):
            # A fresh copy per cut: a secure receiver's nonce moves on.
            read_all(frame[:cut], copy.deepcopy(receiver), io)


@on_every_wire
def test_declared_oversize_is_rejected(kind, io):
    sender, receiver = session_pair(kind)
    oversize = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1)
    if kind == "secure":
        # A validly authenticated length prefix that declares too much.
        oversize = sender.send_cipher.encrypt(b"", oversize)
    with pytest.raises(PacketFormatError):
        read_all(oversize + b"x", receiver, io)


def test_oversized_payload_is_rejected_on_encode():
    with pytest.raises(PacketFormatError):
        encode_frame(bytes(MAX_FRAME_BYTES + 1))
    for kind in SESSIONS:
        sender, _ = session_pair(kind)
        with pytest.raises(PacketFormatError):
            sender.encrypt_frame(bytes(MAX_FRAME_BYTES + 1))
        with pytest.raises(PacketFormatError):
            sender.encrypt_frames(b"lead", [b"ok", bytes(MAX_FRAME_BYTES + 1)], bytearray())


# -- the aio backend's payloads -----------------------------------------------------


@given(packet=packets())
@settings(max_examples=150, deadline=None)
def test_packet_survives_frame_round_trip(packet):
    frame = encode_frame(packet.to_bytes())
    (payload,) = read_all(frame)
    parsed = Packet.from_bytes(payload, source_address="a", destination_address="b")
    assert parsed.to_bytes() == packet.to_bytes()
    assert parsed.flow_id == packet.flow_id
    assert parsed.kind == packet.kind
    assert parsed.d == packet.d
    assert parsed.lane == packet.lane
    assert parsed.seq == packet.seq
    assert parsed.slice_count == packet.slice_count
    assert parsed.size_bytes() == packet.size_bytes() == len(payload)
    for original, decoded in zip(packet.slices, parsed.slices):
        assert np.array_equal(original.coefficients, decoded.coefficients)
        assert np.array_equal(original.payload, decoded.payload)


@given(packet_list=st.lists(packets(), min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_concatenated_frames_decode_in_order(packet_list):
    wire = b"".join(encode_frame(p.to_bytes()) for p in packet_list)
    payloads = read_all(wire)
    assert payloads == [p.to_bytes() for p in packet_list]


@given(packet=packets(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_truncated_frames_are_rejected(packet, data):
    frame = encode_frame(packet.to_bytes())
    cut = data.draw(st.integers(1, len(frame) - 1), label="cut")
    with pytest.raises(PacketFormatError):
        read_all(frame[:cut])


@given(block=st.builds(bytes, st.lists(st.integers(0, 255), max_size=64)))
@settings(max_examples=50, deadline=None)
def test_raw_blob_frames_round_trip(block):
    assert read_all(encode_frame(block)) == [block]
