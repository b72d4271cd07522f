"""Compiled SHA-256 counter-mode keystream behind :class:`~repro.crypto.symmetric.StreamCipher`.

:meth:`StreamCipher.keystream <repro.crypto.symmetric.StreamCipher.keystream>`
defines keystream block ``i`` as ``SHA256(key || nonce || i)`` with ``i`` a
big-endian 64-bit counter.  This module computes exactly those bytes in C:
the full 64-byte blocks of ``key || nonce`` are compressed once per call,
and each counter block then costs one compression (two when ``key ||
nonce`` leaves fewer than 17 bytes of room in its last block).

The C source is built on first use by the system compiler and cached
through :func:`repro.core.gf_kernels.compile_shared_library`, like the
GF(2^8) ``cext`` provider.  It carries two compression functions: a
portable one, and on x86-64 one using the SHA extensions (SHA-NI), which
:func:`load_kernel` picks once when the CPU reports them (``cpuid`` leaf 7,
EBX bit 29, plus SSSE3 and SSE4.1).  When the kernel cannot load — no
usable compiler, an unwritable cache directory, a failed build, or
``REPRO_GF_KERNEL_PROVIDER=none`` — the
failure is cached and the cipher uses its :mod:`hashlib` path, which gives
the same bytes.
"""

from __future__ import annotations

import ctypes
import functools

from ..core.errors import KernelUnavailableError

_C_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

typedef void (*compress_fn)(uint32_t state[8], const uint8_t *data, size_t blocks);

static const uint32_t K[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

static const uint32_t IV[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

#define ROTR(x, n) (((x) >> (n)) | ((x) << (32 - (n))))

static void compress_portable(uint32_t state[8], const uint8_t *data, size_t blocks) {
    uint32_t w[64];
    for (; blocks; blocks--, data += 64) {
        for (int t = 0; t < 16; t++)
            w[t] = (uint32_t)data[4 * t] << 24 | (uint32_t)data[4 * t + 1] << 16
                 | (uint32_t)data[4 * t + 2] << 8 | (uint32_t)data[4 * t + 3];
        for (int t = 16; t < 64; t++) {
            uint32_t s0 = ROTR(w[t - 15], 7) ^ ROTR(w[t - 15], 18) ^ (w[t - 15] >> 3);
            uint32_t s1 = ROTR(w[t - 2], 17) ^ ROTR(w[t - 2], 19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16] + s0 + w[t - 7] + s1;
        }
        uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int t = 0; t < 64; t++) {
            uint32_t t1 = h + (ROTR(e, 6) ^ ROTR(e, 11) ^ ROTR(e, 25))
                        + ((e & f) ^ (~e & g)) + K[t] + w[t];
            uint32_t t2 = (ROTR(a, 2) ^ ROTR(a, 13) ^ ROTR(a, 22))
                        + ((a & b) ^ (a & c) ^ (b & c));
            h = g; g = f; f = e; e = d + t1;
            d = c; c = b; b = a; a = t1 + t2;
        }
        state[0] += a; state[1] += b; state[2] += c; state[3] += d;
        state[4] += e; state[5] += f; state[6] += g; state[7] += h;
    }
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <immintrin.h>
#define HAVE_SHA_NI 1

__attribute__((target("sha,ssse3,sse4.1")))
static void compress_sha_ni(uint32_t state[8], const uint8_t *data, size_t blocks) {
    const __m128i mask = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
    /* The SHA instructions keep the state as ABEF / CDGH lane pairs. */
    __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&state[0]), 0xB1);
    __m128i state1 = _mm_shuffle_epi32(_mm_loadu_si128((const __m128i *)&state[4]), 0x1B);
    __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);
    state1 = _mm_blend_epi16(state1, tmp, 0xF0);
    for (; blocks; blocks--, data += 64) {
        __m128i abef = state0, cdgh = state1;
        __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 0)), mask);
        __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 16)), mask);
        __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 32)), mask);
        __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128((const __m128i *)(data + 48)), mask);
        for (int i = 0; i < 16; i++) {
            /* Rounds 4i .. 4i+3 on schedule words m0 = W[4i .. 4i+3]. */
            __m128i msg = _mm_add_epi32(m0, _mm_loadu_si128((const __m128i *)&K[4 * i]));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(msg, 0x0E));
            /* W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at a time. */
            __m128i next = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), _mm_alignr_epi8(m3, m2, 4)), m3);
            m0 = m1; m1 = m2; m2 = m3; m3 = next;
        }
        state0 = _mm_add_epi32(state0, abef);
        state1 = _mm_add_epi32(state1, cdgh);
    }
    tmp = _mm_shuffle_epi32(state0, 0x1B);
    state1 = _mm_shuffle_epi32(state1, 0xB1);
    _mm_storeu_si128((__m128i *)&state[0], _mm_blend_epi16(tmp, state1, 0xF0));
    _mm_storeu_si128((__m128i *)&state[4], _mm_alignr_epi8(state1, tmp, 8));
}
#endif

int sha256_ctr_has_sha_ni(void) {
#ifdef HAVE_SHA_NI
    unsigned int eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return 0;
    if (!(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1))
        return 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx))
        return 0;
    return (ebx >> 29) & 1;
#else
    return 0;
#endif
}

static void store_be64(uint8_t *p, uint64_t v) {
    for (int i = 7; i >= 0; i--, v >>= 8)
        p[i] = (uint8_t)v;
}

/* Absorb `len` bytes into the partial block `block` holding `fill` bytes,
 * compressing every block that fills up; returns the new fill. */
static size_t absorb(compress_fn compress, uint32_t state[8], uint8_t *block,
                     size_t fill, const uint8_t *data, size_t len) {
    while (len) {
        size_t take = 64 - fill < len ? 64 - fill : len;
        memcpy(block + fill, data, take);
        fill += take;
        data += take;
        len -= take;
        if (fill == 64) {
            compress(state, block, 1);
            fill = 0;
        }
    }
    return fill;
}

/* out[0 .. length) = SHA256(key || nonce || be64(0)) || SHA256(... be64(1)) || ...,
 * truncated to `length` bytes.  Lengths are ints because ctypes passes
 * Python ints as C int when a function declares no argtypes. */
void sha256_ctr_keystream(const uint8_t *key, int key_length,
                          const uint8_t *nonce, int nonce_length,
                          uint8_t *out, int out_length, int sha_ni) {
    size_t key_len = (size_t)key_length, nonce_len = (size_t)nonce_length;
    size_t length = (size_t)out_length;
    compress_fn compress = compress_portable;
#ifdef HAVE_SHA_NI
    if (sha_ni)
        compress = compress_sha_ni;
#endif
    uint32_t prefix[8];
    uint8_t block[128];
    memcpy(prefix, IV, sizeof prefix);
    size_t fill = absorb(compress, prefix, block, 0, key, key_len);
    fill = absorb(compress, prefix, block, fill, nonce, nonce_len);
    /* The tail: leftover prefix bytes, the counter, 0x80, zeros and the
     * message bit length, filling one block or spilling into a second. */
    size_t tail_blocks = fill + 8 + 1 + 8 <= 64 ? 1 : 2;
    memset(block + fill, 0, tail_blocks * 64 - fill);
    block[fill + 8] = 0x80;
    store_be64(block + tail_blocks * 64 - 8, ((uint64_t)key_len + nonce_len + 8) * 8);
    for (uint64_t counter = 0; length; counter++) {
        uint32_t state[8];
        uint8_t digest[32];
        memcpy(state, prefix, sizeof state);
        store_be64(block + fill, counter);
        compress(state, block, tail_blocks);
        for (int i = 0; i < 8; i++) {
            digest[4 * i] = (uint8_t)(state[i] >> 24);
            digest[4 * i + 1] = (uint8_t)(state[i] >> 16);
            digest[4 * i + 2] = (uint8_t)(state[i] >> 8);
            digest[4 * i + 3] = (uint8_t)state[i];
        }
        size_t take = length < 32 ? length : 32;
        memcpy(out, digest, take);
        out += take;
        length -= take;
    }
}
"""


class Sha256CounterKernel:
    """The compiled keystream with one compression function bound.

    ``path`` names it: ``"sha-ni"`` or ``"portable"``.
    """

    def __init__(self, library: ctypes.CDLL, sha_ni: bool) -> None:
        self.path = "sha-ni" if sha_ni else "portable"
        self._sha_ni = int(sha_ni)
        # No argtypes: converting seven declared arguments costs more than
        # hashing a 32-byte block, while bytes pass as pointers and ints as
        # C int as they are.  Callers pass bytes and ints.
        self._fn = library.sha256_ctr_keystream
        self._fn.restype = None

    def keystream(self, key: bytes, nonce: bytes, length: int) -> bytes:
        """``SHA256(key || nonce || i)`` for ``i = 0, 1, ...``, truncated to ``length``."""
        out = ctypes.create_string_buffer(length)
        self._fn(key, len(key), nonce, len(nonce), out, length, self._sha_ni)
        return out.raw


def load_library() -> ctypes.CDLL:
    """Build (or reuse) and load the kernel's shared library.

    :raises KernelUnavailableError: compiled kernels are disabled, or the
        library cannot be built or loaded.
    """
    from ..core import gf_kernels  # not at import: repro.core imports this module

    if gf_kernels.compiled_kernels_disabled():
        raise KernelUnavailableError(
            f"compiled kernels disabled by {gf_kernels.PROVIDER_ENV}=none"
        )
    path = gf_kernels.compile_shared_library("sha256_ctr", _C_SOURCE)
    try:
        library = ctypes.CDLL(str(path))
    except OSError as error:
        raise KernelUnavailableError(f"cannot load {path}: {error}") from error
    library.sha256_ctr_has_sha_ni.restype = ctypes.c_int
    library.sha256_ctr_has_sha_ni.argtypes = []
    return library


@functools.cache
def load_kernel() -> Sha256CounterKernel | None:
    """The compiled keystream (fastest path this CPU has), or ``None``.

    Resolved once per process, failure included; ``load_kernel.cache_clear()``
    forgets the outcome.
    """
    try:
        library = load_library()
    except KernelUnavailableError:
        return None
    return Sha256CounterKernel(library, bool(library.sha256_ctr_has_sha_ni()))


def active_path() -> str:
    """The path keystreams take here: ``"sha-ni"``, ``"portable"`` or ``"hashlib"``."""
    kernel = load_kernel()
    return kernel.path if kernel is not None else "hashlib"

