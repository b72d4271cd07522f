"""The wire of the repro TCP substrates: one frame layer, plain or secure.

:mod:`repro.net.frames` defines the frame format (4-byte big-endian length,
then the payload, at most 4 MiB), the plain null session and the two frame
readers (asyncio stream, blocking socket).  :mod:`repro.net.secure` holds
the pure-logic Noise-style handshake and the AEAD session with the same
surface as the plain one, :mod:`repro.net.keyfiles` the on-disk key and
allowlist formats, and :mod:`repro.net.channel` the sync-socket and asyncio
channels that both the aio overlay backend and the distributed
coordinator/worker protocol open on every connection.
"""

from __future__ import annotations

from .keyfiles import (
    TransportCredential,
    load_allowlist,
    load_keypair,
    load_public_key,
    write_keypair,
)
from .secure import (
    CipherState,
    HandshakeState,
    SecureSession,
    StaticKeyPair,
    aead_decrypt,
    aead_encrypt,
)

__all__ = [
    "CipherState",
    "HandshakeState",
    "SecureSession",
    "StaticKeyPair",
    "TransportCredential",
    "aead_decrypt",
    "aead_encrypt",
    "load_allowlist",
    "load_keypair",
    "load_public_key",
    "write_keypair",
]
