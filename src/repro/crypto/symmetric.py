"""Symmetric keystream cipher.

The paper encrypts data messages with a per-destination symmetric key that
the source delivered during route setup (§4.2.1).  Rather than depending on
an external crypto package, we implement a simple counter-mode keystream
cipher over SHA-256: the keystream block ``i`` is ``SHA256(key || nonce || i)``
and ciphertext is plaintext XOR keystream.  This provides the properties the
protocol evaluation needs — the ciphertext is unintelligible without the key
and the operation cost is realistic for a software cipher — without claiming
to be production cryptography.

The bytes are computed by the compiled kernel of
:mod:`repro.crypto.sha256_kernel` when it loads (SHA-NI or portable C), and
otherwise by :mod:`hashlib`, hashing ``key || nonce`` once per call and
copying that state for each (pre-packed) counter block.  Both give exactly the bytes of
the definition above.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from ..core.errors import ProtocolError
from .sha256_kernel import load_kernel

_BLOCK_SIZE = 32  # SHA-256 digest size
NONCE_SIZE = 8

#: Big-endian counter blocks for the first 8 KiB of a keystream, packed once:
#: packing them per call costs the hashlib path about a fifth of its time.
_COUNTERS = [struct.pack(">Q", counter) for counter in range(256)]


class StreamCipher:
    """Counter-mode keystream cipher keyed by an arbitrary byte string."""

    def __init__(self, key: bytes) -> None:
        if not key:
            raise ProtocolError("symmetric key must be non-empty")
        self._key = bytes(key)

    def keystream(self, nonce: bytes, length: int) -> bytes:
        """Generate ``length`` keystream bytes for the given nonce."""
        if length <= 0:
            return b""
        kernel = load_kernel()
        if kernel is not None:
            return kernel.keystream(self._key, bytes(nonce), length)
        prefix = hashlib.sha256(self._key)
        prefix.update(nonce)
        count = (length + _BLOCK_SIZE - 1) // _BLOCK_SIZE
        counters = _COUNTERS[:count]
        counters.extend(struct.pack(">Q", counter) for counter in range(len(counters), count))
        blocks = []
        for counter in counters:
            block = prefix.copy()
            block.update(counter)
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def encrypt(self, plaintext: bytes, nonce: bytes) -> bytes:
        """XOR ``plaintext`` with the keystream for ``nonce``."""
        if len(nonce) != NONCE_SIZE:
            raise ProtocolError(f"nonce must be {NONCE_SIZE} bytes, got {len(nonce)}")
        stream = self.keystream(nonce, len(plaintext))
        # Vectorised XOR: identical bytes to the per-byte loop, but constant
        # Python overhead — this sits on the data path of every message.
        out = np.bitwise_xor(
            np.frombuffer(plaintext, dtype=np.uint8),
            np.frombuffer(stream, dtype=np.uint8),
        )
        return out.tobytes()

    # XOR is an involution, so decryption is identical to encryption.
    decrypt = encrypt

    def seal(self, plaintext: bytes, nonce: bytes) -> bytes:
        """Encrypt and prepend the nonce, producing a self-contained blob."""
        return nonce + self.encrypt(plaintext, nonce)

    def open(self, blob: bytes) -> bytes:
        """Inverse of :meth:`seal`."""
        if len(blob) < NONCE_SIZE:
            raise ProtocolError("sealed blob shorter than its nonce")
        return self.decrypt(blob[NONCE_SIZE:], blob[:NONCE_SIZE])

