"""Sync-socket and asyncio frame channels, plain or secure.

A *channel* bundles a connection with the :mod:`repro.net.frames` session
it speaks and gives both TCP substrates the same two-method surface:
``send_frame(payload)`` / ``recv_frame() -> bytes | None``.  There is one
channel class per I/O style; plain and secure differ only in the session
they hold.  Above a channel the substrates are transport-agnostic, which is
what keeps merged artifacts byte-identical across ``plain`` and ``secure``
runs.

The ``connect_*`` / ``accept_*`` functions open a channel on a connected
socket or stream pair.  Without a credential they return a plain channel at
once; with one they run the three handshake acts first.  The responder-side
accept functions check the initiator's authenticated static key against the
allowlist and raise :class:`~repro.core.errors.HandshakeError` *before*
returning a channel, so an unauthorized peer never gets a single
application frame processed.
"""

from __future__ import annotations

import asyncio
import socket

from ..core.errors import HandshakeError
from .frames import PLAIN, read_frame, read_frame_blocking, recv_exactly
from .keyfiles import TransportCredential
from .secure import ACT_ONE_SIZE, ACT_THREE_SIZE, ACT_TWO_SIZE, HandshakeState


def _check_authorized(credential: TransportCredential, remote: bytes) -> None:
    if not credential.is_authorized(remote):
        raise HandshakeError(
            f"unauthorized static key {remote.hex()[:16]}… rejected by allowlist"
        )


# -- blocking sockets ---------------------------------------------------------------


class SyncFrameChannel:
    """Frames over a blocking socket, through a plain or secure session."""

    def __init__(self, sock: socket.socket, session=PLAIN) -> None:
        self.sock = sock
        self.session = session

    def send_frame(self, payload: bytes) -> None:
        self.sock.sendall(self.session.encrypt_frame(payload))

    def recv_frame(self) -> bytes | None:
        return read_frame_blocking(self.sock, self.session)


def _recv_handshake(sock: socket.socket, size: int, act: str) -> bytes:
    data = recv_exactly(sock, size)
    if data is None:
        raise HandshakeError(f"connection closed before {act}")
    return data


def connect_sync(
    sock: socket.socket, credential: TransportCredential | None
) -> SyncFrameChannel:
    """Open the initiator side over a connected socket."""
    if credential is None:
        return SyncFrameChannel(sock)
    handshake = HandshakeState.initiator(credential.keypair, credential.remote_public)
    sock.sendall(handshake.write_act_one())
    handshake.read_act_two(_recv_handshake(sock, ACT_TWO_SIZE, "act two"))
    sock.sendall(handshake.write_act_three())
    return SyncFrameChannel(sock, handshake.session())


def accept_sync(
    sock: socket.socket, credential: TransportCredential | None
) -> SyncFrameChannel:
    """Open the responder side over a connected socket; enforce the allowlist."""
    if credential is None:
        return SyncFrameChannel(sock)
    handshake = HandshakeState.responder(credential.keypair)
    handshake.read_act_one(_recv_handshake(sock, ACT_ONE_SIZE, "act one"))
    sock.sendall(handshake.write_act_two())
    remote = handshake.read_act_three(
        _recv_handshake(sock, ACT_THREE_SIZE, "act three")
    )
    _check_authorized(credential, remote)
    return SyncFrameChannel(sock, handshake.session())


# -- asyncio streams ----------------------------------------------------------------


class AioFrameChannel:
    """Frames over an asyncio stream pair, through a plain or secure session."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, session=PLAIN
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.session = session

    async def send_frame(self, payload: bytes) -> None:
        # Encrypt and hand to the transport in one step with no await in
        # between, so nonce order always matches wire order even when
        # several coroutines send on the same channel.
        self.writer.write(self.session.encrypt_frame(payload))
        await self.writer.drain()

    async def recv_frame(self) -> bytes | None:
        return await read_frame(self.reader, self.session)


async def _read_handshake(reader: asyncio.StreamReader, size: int, act: str) -> bytes:
    try:
        return await reader.readexactly(size)
    except asyncio.IncompleteReadError:
        raise HandshakeError(f"connection closed before {act}") from None


async def connect_aio(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    credential: TransportCredential | None,
) -> AioFrameChannel:
    """Open the initiator side over an asyncio stream pair."""
    if credential is None:
        return AioFrameChannel(reader, writer)
    handshake = HandshakeState.initiator(credential.keypair, credential.remote_public)
    writer.write(handshake.write_act_one())
    await writer.drain()
    handshake.read_act_two(await _read_handshake(reader, ACT_TWO_SIZE, "act two"))
    writer.write(handshake.write_act_three())
    await writer.drain()
    return AioFrameChannel(reader, writer, handshake.session())


async def accept_aio(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    credential: TransportCredential | None,
) -> AioFrameChannel:
    """Open the responder side over an asyncio stream pair; enforce the allowlist."""
    if credential is None:
        return AioFrameChannel(reader, writer)
    handshake = HandshakeState.responder(credential.keypair)
    handshake.read_act_one(await _read_handshake(reader, ACT_ONE_SIZE, "act one"))
    writer.write(handshake.write_act_two())
    await writer.drain()
    remote = handshake.read_act_three(
        await _read_handshake(reader, ACT_THREE_SIZE, "act three")
    )
    _check_authorized(credential, remote)
    return AioFrameChannel(reader, writer, handshake.session())
