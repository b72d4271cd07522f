"""Host-speed calibration: a fixed kernel timed between transfers.

On a shared host the same transfer's wall time drifts by up to 2x over
minutes, and process CPU time drifts with it (see README.md, "Host drift").
The benchmark therefore times this kernel right before every transfer and
scales the transfer's wall time by ``REFERENCE_S / kernel time``: the
result is the time the transfer would have taken at the reference host
speed.  The kernel uses only the standard library and numpy, never the
program under test, so no change to the program can move it; it mixes the
kinds of work the transfers do (interpreted loops, small SHA-256 calls,
numpy table lookups, dict and tuple churn) so it slows down when they do.
"""

from __future__ import annotations

import hashlib
import struct
from time import perf_counter

import numpy as np

#: Kernel time on the reference host (2-CPU x86_64 container, Python 3.11,
#: numpy 2.4), as the median of many best-of-3 samples.  Only a scale: it
#: makes reference-speed figures read like wall-clock figures on that host.
REFERENCE_S = 0.0022

_TABLE = np.random.default_rng(0).integers(0, 256, 65536, dtype=np.uint8)
_INDEX = np.random.default_rng(1).integers(0, 65536, 4096)
_KEY = bytes(32)


def kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = perf_counter()
    blocks = [hashlib.sha256(_KEY + struct.pack(">Q", counter)).digest() for counter in range(800)]
    b"".join(blocks)
    total = 0
    for _ in range(40):
        total += int(_TABLE[_INDEX].sum())
    table = {index: (index, str(index)) for index in range(6000)}
    del table
    return perf_counter() - start


def sample() -> float:
    """Best of three kernel runs: the host's current speed, interruptions filtered."""
    return min(kernel(), kernel(), kernel())
