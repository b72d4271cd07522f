"""The one frame layer both TCP substrates speak.

A *frame* is a 4-byte big-endian length, at most :data:`MAX_FRAME_BYTES`,
followed by that many payload bytes.  What actually crosses the wire for a
frame is up to a *session*.  :data:`PLAIN` is the null session, which sends
the frame as it is: the Noise framework's cipher state with an empty key,
whose encryption is the identity.
:class:`~repro.net.secure.SecureSession` encrypts the length prefix and the
payload as two AEAD messages.  Both have the same surface:

* ``header_size``: the wire bytes of one length prefix;
* ``encrypt_frame(payload)``: one frame's complete wire bytes;
* ``encrypt_frames(lead, frames, buffer)``: the ``writelines`` chunks of a
  leading frame followed by ``frames``, sent as one write;
* ``decrypt_length(header)``: the body's wire size, limit enforced;
* ``decrypt_body(body)``: the frame payload.

So one reader per I/O style serves both transports: :func:`read_frame` over
an asyncio stream (the aio overlay, the coordinator) and
:func:`read_frame_blocking` over a blocking socket (workers).  Each returns
``None`` on a clean EOF between frames and raises
:class:`~repro.core.errors.PacketFormatError` for a truncated frame or a
declared length over the limit.

>>> wire = PLAIN.encrypt_frame(b"job frame")
>>> wire
b'\\x00\\x00\\x00\\tjob frame'
>>> PLAIN.decrypt_length(wire[:PLAIN.header_size])
9
>>> PLAIN.decrypt_length(FRAME_HEADER.pack(MAX_FRAME_BYTES + 1))
Traceback (most recent call last):
    ...
repro.core.errors.PacketFormatError: frame of 4194305 bytes exceeds the 4194304-byte limit
"""

from __future__ import annotations

import asyncio
import socket
import struct

from ..core.errors import PacketFormatError

#: Length prefix of every frame (encrypted as a whole on a secure session).
FRAME_HEADER = struct.Struct(">I")

#: Upper bound on a single frame's payload; anything larger is a protocol
#: error (slicing packets are a few KiB even at large split factors).
MAX_FRAME_BYTES = 1 << 22


def check_frame_length(length: int) -> int:
    """Return ``length``, or raise if a frame that long is over the limit."""
    if length > MAX_FRAME_BYTES:
        raise PacketFormatError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def encode_frame(payload: bytes) -> bytes:
    """Length-prefix ``payload`` for the wire."""
    return FRAME_HEADER.pack(check_frame_length(len(payload))) + payload


class PlainSession:
    """The null session: every frame crosses the wire in plaintext."""

    header_size = FRAME_HEADER.size

    encrypt_frame = staticmethod(encode_frame)

    @staticmethod
    def encrypt_frames(
        lead: bytes, frames: list[bytes], buffer: bytearray
    ) -> list[bytes | memoryview]:
        """Assemble the wire chunks of ``lead`` then ``frames``, zero-copy.

        Packs ``lead`` (a small header frame) and every frame's length
        prefix into ``buffer``, grown in place if needed so callers can pool
        it, and returns memoryview slices of it interleaved with the
        payload ``bytes`` objects themselves: payloads are never copied in
        Python.  Joining the chunks gives exactly ``encode_frame(lead)``
        followed by ``encode_frame(frame)`` for each frame.

        Callers must drop the returned memoryviews before reusing or growing
        ``buffer`` (a bytearray with live exports cannot resize).
        """
        for frame in frames:
            check_frame_length(len(frame))
        lead_end = FRAME_HEADER.size + len(lead)
        needed = lead_end + FRAME_HEADER.size * len(frames)
        if len(buffer) < needed:
            buffer.extend(bytes(needed - len(buffer)))
        FRAME_HEADER.pack_into(buffer, 0, len(lead))
        buffer[FRAME_HEADER.size : lead_end] = lead
        view = memoryview(buffer)
        chunks: list[bytes | memoryview] = [view[:lead_end]]
        offset = lead_end
        for frame in frames:
            FRAME_HEADER.pack_into(buffer, offset, len(frame))
            chunks.append(view[offset : offset + FRAME_HEADER.size])
            chunks.append(frame)
            offset += FRAME_HEADER.size
        return chunks

    @staticmethod
    def decrypt_length(header: bytes) -> int:
        (length,) = FRAME_HEADER.unpack(header)
        return check_frame_length(length)

    @staticmethod
    def decrypt_body(body: bytes) -> bytes:
        return body


#: The plaintext transport's session (stateless, so one instance serves all).
PLAIN = PlainSession()


async def read_frame(reader: asyncio.StreamReader, session=PLAIN) -> bytes | None:
    """Read one frame from a stream; ``None`` on a clean EOF between frames."""
    try:
        header = await reader.readexactly(session.header_size)
    except asyncio.IncompleteReadError as exc:
        if exc.partial:
            raise PacketFormatError("truncated frame header") from None
        return None
    size = session.decrypt_length(header)
    try:
        body = await reader.readexactly(size)
    except asyncio.IncompleteReadError:
        raise PacketFormatError("truncated frame payload") from None
    return session.decrypt_body(body)


def recv_exactly(sock: socket.socket, size: int) -> bytes | None:
    """Read exactly ``size`` bytes; ``None`` on clean EOF before the first."""
    chunks: list[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 65536))
        if not chunk:
            if not chunks:
                return None
            raise PacketFormatError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame_blocking(sock: socket.socket, session=PLAIN) -> bytes | None:
    """Read one frame from a blocking socket; ``None`` on a clean EOF."""
    header = recv_exactly(sock, session.header_size)
    if header is None:
        return None
    body = recv_exactly(sock, session.decrypt_length(header))
    if body is None:
        raise PacketFormatError("truncated frame payload")
    return session.decrypt_body(body)
