"""Tests for the crypto substrates: keystream cipher, keys, PK cost model."""

import hashlib
import os
import struct
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import distinct_key_pairs, payload_blobs

from repro.core import gf_kernels
from repro.core.errors import KernelUnavailableError, ProtocolError
from repro.crypto import sha256_kernel, symmetric
from repro.crypto.keys import KeyMaterial, generate_flow_id, generate_key, generate_nonce
from repro.crypto.public_key import PublicKeyCostModel, SimulatedKeyPair
from repro.crypto.symmetric import NONCE_SIZE, StreamCipher


def test_stream_cipher_roundtrip():
    cipher = StreamCipher(b"k" * 16)
    nonce = b"\x01" * NONCE_SIZE
    plaintext = b"the quick brown fox" * 10
    ciphertext = cipher.encrypt(plaintext, nonce)
    assert ciphertext != plaintext
    assert cipher.decrypt(ciphertext, nonce) == plaintext


def test_stream_cipher_nonce_separates_keystreams():
    cipher = StreamCipher(b"key")
    plaintext = b"\x00" * 64
    a = cipher.encrypt(plaintext, b"\x00" * 8)
    b = cipher.encrypt(plaintext, b"\x01" + b"\x00" * 7)
    assert a != b


def test_stream_cipher_key_separates_keystreams():
    plaintext = b"\x00" * 64
    nonce = b"\x07" * 8
    key_a, key_b = StreamCipher(b"key-a"), StreamCipher(b"key-b")
    assert key_a.encrypt(plaintext, nonce) != key_b.encrypt(plaintext, nonce)
    assert key_a.decrypt(key_a.encrypt(plaintext, nonce), nonce) == plaintext


def test_stream_cipher_rejects_bad_inputs():
    with pytest.raises(ProtocolError):
        StreamCipher(b"")
    with pytest.raises(ProtocolError):
        StreamCipher(b"key").encrypt(b"data", b"short")


def test_seal_open_roundtrip():
    cipher = StreamCipher(b"sealing key")
    blob = cipher.seal(b"hidden", b"\x09" * 8)
    assert cipher.open(blob) == b"hidden"
    with pytest.raises(ProtocolError):
        cipher.open(b"tiny")


def test_generate_key_and_flow_id_reproducible():
    a = generate_key(np.random.default_rng(1))
    b = generate_key(np.random.default_rng(1))
    assert a == b and len(a) == 16
    flow_a = generate_flow_id(np.random.default_rng(2))
    flow_b = generate_flow_id(np.random.default_rng(2))
    assert flow_a == flow_b and flow_a != 0
    assert len(generate_nonce(np.random.default_rng(3))) == 8


def test_key_material_nonce_derivation():
    material = KeyMaterial.generate(np.random.default_rng(4))
    assert material.nonce_for(1) != material.nonce_for(2)
    assert len(material.nonce_for(7)) == 8


def test_simulated_keypair_encrypt_decrypt():
    rng = np.random.default_rng(5)
    pair = SimulatedKeyPair.generate("relay-a", rng)
    envelope = pair.encrypt(b"onion layer")
    assert b"onion layer" not in envelope
    assert pair.decrypt(envelope) == b"onion layer"


def test_simulated_keypair_rejects_foreign_envelopes():
    rng = np.random.default_rng(6)
    alice = SimulatedKeyPair.generate("a", rng)
    bob = SimulatedKeyPair.generate("b", rng)
    with pytest.raises(ValueError):
        bob.decrypt(alice.encrypt(b"not for bob"))


def test_cost_model_defaults_ordering():
    model = PublicKeyCostModel()
    assert model.decrypt_seconds > model.encrypt_seconds > 0
    assert model.symmetric_seconds_per_byte > 0


# -- negative paths (hypothesis over the shared strategies) -------------------------


def test_empty_payload_roundtrips():
    cipher = StreamCipher(b"key")
    nonce = b"\x02" * NONCE_SIZE
    assert cipher.encrypt(b"", nonce) == b""
    assert cipher.open(cipher.seal(b"", nonce)) == b""


@given(plaintext=payload_blobs(min_size=1), keys=distinct_key_pairs())
@settings(max_examples=60, deadline=None)
def test_wrong_key_never_recovers_the_plaintext(plaintext, keys):
    key, wrong_key = keys
    nonce = b"\x05" * NONCE_SIZE
    ciphertext = StreamCipher(key).encrypt(plaintext, nonce)
    assert StreamCipher(key).decrypt(ciphertext, nonce) == plaintext
    assert StreamCipher(wrong_key).keystream(nonce, 32) != StreamCipher(key).keystream(nonce, 32)
    # A wrong key recovers an n-byte plaintext by chance with probability
    # 256**-n (keys b"]" and b"n\xdf" share their first keystream byte under
    # this nonce), so only plaintexts long enough to make that negligible
    # are held to it.
    if len(plaintext) >= 16:
        assert StreamCipher(wrong_key).decrypt(ciphertext, nonce) != plaintext


@given(plaintext=payload_blobs(min_size=2), cut=st.integers(1, 160))
@settings(max_examples=60, deadline=None)
def test_truncated_ciphertext_never_recovers_the_plaintext(plaintext, cut):
    cut = min(cut, len(plaintext) - 1)
    cipher = StreamCipher(b"truncation key")
    nonce = b"\x06" * NONCE_SIZE
    truncated = cipher.encrypt(plaintext, nonce)[:-cut]
    recovered = cipher.decrypt(truncated, nonce)
    assert recovered != plaintext
    assert recovered == plaintext[: len(plaintext) - cut]


@given(cut=st.integers(1, NONCE_SIZE))
@settings(max_examples=20, deadline=None)
def test_sealed_blob_truncated_into_the_nonce_is_rejected(cut):
    cipher = StreamCipher(b"sealing key")
    blob = cipher.seal(b"", b"\x08" * NONCE_SIZE)
    with pytest.raises(ProtocolError):
        cipher.open(blob[: NONCE_SIZE - cut])


def test_truncated_envelope_header_is_rejected():
    pair = SimulatedKeyPair.generate("relay-t", np.random.default_rng(9))
    envelope = pair.encrypt(b"layer")
    with pytest.raises(ValueError):
        pair.decrypt(envelope[:10])


# -- keystream bit-identity: every path against the literal definition ----------------


def reference_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """The definition: block ``i`` is ``SHA256(key || nonce || be64(i))``, truncated."""
    blocks = (length + 31) // 32
    digests = [hashlib.sha256(key + nonce + struct.pack(">Q", i)).digest() for i in range(blocks)]
    return b"".join(digests)[:length]


def _keystream_path(path: str):
    """``keystream(key, nonce, length)`` through one named path, or skip."""
    if path == "shipped":
        return lambda key, nonce, length: StreamCipher(key).keystream(nonce, length)
    if path == "hashlib":

        def hashlib_path(key, nonce, length):
            with mock.patch.object(symmetric, "load_kernel", lambda: None):
                return StreamCipher(key).keystream(nonce, length)

        return hashlib_path
    try:
        library = sha256_kernel.load_library()
    except KernelUnavailableError as error:
        pytest.skip(f"no compiled keystream: {error}")
    if path == "sha-ni" and not library.sha256_ctr_has_sha_ni():
        pytest.skip("this CPU has no SHA extensions")
    return sha256_kernel.Sha256CounterKernel(library, sha_ni=path == "sha-ni").keystream


@pytest.fixture(scope="module", params=("shipped", "hashlib", "portable", "sha-ni"))
def keystream(request):
    return _keystream_path(request.param)


#: Digests of keystreams taken from the per-block ``hashlib`` loop the
#: faster paths replaced: (key, nonce, length, hex of the bytes or of
#: their SHA-256 when long).
KNOWN_ANSWERS = [
    (b"k" * 16, b"\x01" * 8, 40,
     "e6da141aa2c795f25a877826730fb7d80a406146b7d63b275ecc868bdf97699676a23fcc40cd661a"),
    (b"x" * 47, b"", 33,
     "4a61a2c910af9ee65a0419b5f558b0406cf7cffb0af24e9cb8dbc17c16cd4c7f5a"),
    (b"y" * 48, b"\x02" * 8, 31,
     "f0fa43867f5f8bf297128340ee7723fbbe02efd7be858ed6784992f44aa8e9"),
    (bytes(range(100)), bytes(range(24)), 5000,
     "adf2eea68ca3086a3cba0c6b7d5e6aa9ded38f59a7aec9ba64ec26a2555cda77"),
    (b"session-key-0123", bytes(8), 1500,
     "8034b0eab22befe9308aa6b3b968e91d7632bc1b654c2e06510cdfb6e5fd35c1"),
]


def _answer(stream: bytes, length: int) -> str:
    return stream.hex() if length <= 64 else hashlib.sha256(stream).hexdigest()


def test_keystream_known_answers(keystream):
    for key, nonce, length, expected in KNOWN_ANSWERS:
        assert _answer(keystream(key, nonce, length), length) == expected


def test_keystream_matches_definition_at_every_block_boundary(keystream):
    """Every key length to 100 crosses the one-/two-block tail boundary."""
    for key_length in range(1, 101):
        key = bytes((7 * i + key_length) % 256 for i in range(key_length))
        for nonce in (b"", b"\x09" * NONCE_SIZE, bytes(range(24))):
            for length in (0, 1, 31, 32, 33, 65):
                assert keystream(key, nonce, length) == reference_keystream(key, nonce, length)


@settings(max_examples=150, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=100),
    nonce=st.binary(max_size=24),
    length=st.one_of(st.sampled_from([0, 1, 31, 32, 33]), st.integers(0, 5000)),
)
@example(key=b"\xaa" * 47, nonce=b"", length=33)
@example(key=b"\xbb" * 48, nonce=b"", length=32)
def test_keystream_is_bit_identical_to_definition(keystream, key, nonce, length):
    assert keystream(key, nonce, length) == reference_keystream(key, nonce, length)


# -- fallback: the hashlib path when no kernel loads ----------------------------------


def _run_python(code: str, **env: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
        check=False,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_disabled_kernels_give_identical_bytes_in_a_pristine_interpreter():
    key, nonce, length, expected = KNOWN_ANSWERS[3]
    out = _run_python(
        "import hashlib\n"
        "from repro.crypto import sha256_kernel\n"
        "from repro.crypto.symmetric import StreamCipher\n"
        f"stream = StreamCipher({key!r}).keystream({nonce!r}, {length})\n"
        "print(sha256_kernel.active_path(), hashlib.sha256(stream).hexdigest())\n",
        **{gf_kernels.PROVIDER_ENV: "none"},
    )
    assert out.split() == ["hashlib", expected]


def _assert_silent_fallback_with_one_build(monkeypatch, message: str) -> None:
    """Known answers on the hashlib path, after one failed build attempt."""
    monkeypatch.delenv(gf_kernels.PROVIDER_ENV, raising=False)
    builds = []
    build = gf_kernels.compile_shared_library

    def counting_build(name, source):
        builds.append(name)
        return build(name, source)

    monkeypatch.setattr(gf_kernels, "compile_shared_library", counting_build)
    sha256_kernel.load_kernel.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for key, nonce, length, expected in KNOWN_ANSWERS:
                stream = StreamCipher(key).keystream(nonce, length)
                assert _answer(stream, length) == expected
        assert sha256_kernel.active_path() == "hashlib"
        assert builds == ["sha256_ctr"]  # tried once, the failure is cached
        with pytest.raises(KernelUnavailableError, match=message):
            sha256_kernel.load_library()
    finally:
        sha256_kernel.load_kernel.cache_clear()


def test_missing_compiler_falls_back_silently_and_caches_the_failure(monkeypatch, tmp_path):
    monkeypatch.setenv("CC", "/nonexistent")
    monkeypatch.setattr(gf_kernels, "CACHE_DIR", tmp_path)  # no cached library to reuse
    _assert_silent_fallback_with_one_build(monkeypatch, "/nonexistent")


def test_uncreatable_cache_dir_falls_back_silently_and_caches_the_failure(
    monkeypatch, tmp_path
):
    blocker = tmp_path / "a-file"
    blocker.write_bytes(b"")
    monkeypatch.setattr(gf_kernels, "CACHE_DIR", blocker / "cache")  # cannot be made
    _assert_silent_fallback_with_one_build(monkeypatch, "a-file")


def test_unexecutable_compiler_falls_back_silently_and_caches_the_failure(
    monkeypatch, tmp_path
):
    compiler = tmp_path / "cc-not-executable"
    compiler.write_text("not a program\n")
    compiler.chmod(0o644)
    monkeypatch.setenv("CC", str(compiler))
    monkeypatch.setattr(gf_kernels, "CACHE_DIR", tmp_path / "cache")
    _assert_silent_fallback_with_one_build(monkeypatch, "cc-not-executable")


def test_importing_the_cipher_builds_nothing():
    """The kernel builds on the first keystream, not at import."""
    out = _run_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "import repro.crypto.symmetric\n"
        "from repro.crypto import sha256_kernel\n"
        "print(sorted({'subprocess', 'tempfile'} & (set(sys.modules) - before)),\n"
        "      sha256_kernel.load_kernel.cache_info().currsize)\n"
    )
    assert out.split() == ["[]", "0"]
