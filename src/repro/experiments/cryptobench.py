"""Keystream microbenchmark: the shipped keystream vs. its literal definition.

:meth:`~repro.crypto.symmetric.StreamCipher.keystream` defines block ``i``
as ``SHA256(key || nonce || be64(i))``.  The reference here computes exactly
that, one fresh :func:`hashlib.sha256` call per 32-byte block; the shipped
method computes the same bytes through the compiled kernel of
:mod:`repro.crypto.sha256_kernel` (SHA-NI or portable C) or, when it cannot
load, through its :mod:`hashlib` prefix-copy path.  Each row times both over
the same keys and nonces, checks the bytes are identical, and names the path
the shipped method took, so the ``cryptobench`` gate can hold every path to
its own target.
"""

from __future__ import annotations

import hashlib
import struct
import time

import numpy as np

from ..crypto.sha256_kernel import active_path
from ..crypto.symmetric import StreamCipher

#: Keystreams per timed pass: one pass is a few milliseconds, well clear of
#: timer granularity.
CRYPTOBENCH_CALLS = 200

#: Session-key width the protocols hand out (``repro.crypto.keys``).
CRYPTOBENCH_KEY_BYTES = 16


def reference_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The definition, one fresh SHA-256 per counter block."""
    blocks = [
        hashlib.sha256(key + nonce + struct.pack(">Q", counter)).digest()
        for counter in range((length + 31) // 32)
    ]
    return b"".join(blocks)[:length]


def compare_keystreams(length: int, seed: int, calls: int = CRYPTOBENCH_CALLS) -> dict:
    """Time ``calls`` keystreams of ``length`` bytes on both paths."""
    rng = np.random.default_rng(seed)
    pairs = [(rng.bytes(CRYPTOBENCH_KEY_BYTES), rng.bytes(8)) for _ in range(calls)]
    StreamCipher(b"warm-up").keystream(b"", 1)  # load the kernel outside the timing

    start = time.perf_counter()
    reference = [reference_keystream(key, nonce, length) for key, nonce in pairs]
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    shipped = [StreamCipher(key).keystream(nonce, length) for key, nonce in pairs]
    shipped_seconds = time.perf_counter() - start

    return {
        "path": active_path(),
        "bytes": length,
        "reference_us": reference_seconds / calls * 1e6,
        "keystream_us": shipped_seconds / calls * 1e6,
        "speedup": reference_seconds / max(shipped_seconds, 1e-12),
        "identical": shipped == reference,
    }
