"""Noise-style authenticated transport: pure handshake and cipher logic.

Both TCP substrates — the asyncio overlay backend (:mod:`repro.overlay.aio`)
and the distributed coordinator/worker protocol
(:mod:`repro.experiments.distributed`) — speak the frames of
:mod:`repro.net.frames`.  This module supplies the authenticated session
*below* those frames, modelled on Lightning's BOLT #8 transport (itself
Noise_XK): a three-act handshake establishing per-session send/receive
keys, then one AEAD-protected message per frame with an **encrypted length
prefix**, strictly increasing nonces, and periodic key rotation.  A passive observer of a secure connection sees
neither frame boundaries nor payload bytes; an active attacker who flips a
bit, truncates a body, or replays a ciphertext fails the MAC check.

Like the rest of :mod:`repro.crypto`, the primitives are *simulated*
cryptography with real structure: the Diffie-Hellman group is modular
exponentiation over ``p = 2**255 - 19`` (the same group the Sphinx runtime
uses), the AEAD is the repo's counter-mode :class:`~repro.crypto.symmetric.
StreamCipher` in encrypt-then-MAC composition with HMAC-SHA256, and the key
schedule is HKDF-SHA256.  Every structural property the tests rely on —
transcript binding, wrong-static-key rejection, nonce-reuse rejection,
tamper rejection, rotation continuity — holds exactly as in the production
construction; only the primitives' hardness is out of scope.

Handshake (Noise XK, as in BOLT #8)
-----------------------------------
The initiator must know the responder's static public key up front (workers
are provisioned with the coordinator's ``.pub`` file); the initiator's own
static key travels *encrypted* inside act three, where the responder checks
it against an allowlist before any application frame is processed::

    initiator                      responder
        ----- act one (49 B) ----->    e, es
        <---- act two (49 B) ------    e, ee
        ----- act three (65 B) --->    s, se

Everything is a pure state machine — no sockets, no clocks — so the
handshake is property-testable in isolation (``tests/test_secure_transport.
py``); the socket adapters live in :mod:`repro.net.channel`.

>>> import itertools
>>> counter = itertools.count(7)
>>> entropy = lambda n: bytes([next(counter) % 251] * n)   # test determinism
>>> server = StaticKeyPair.generate(entropy)
>>> client = StaticKeyPair.generate(entropy)
>>> ini = HandshakeState.initiator(client, server.public, entropy=entropy)
>>> res = HandshakeState.responder(server, entropy=entropy)
>>> res.read_act_one(ini.write_act_one())
>>> ini.read_act_two(res.write_act_two())
>>> res.read_act_three(ini.write_act_three()) == client.public
True
>>> ini_session, res_session = ini.session(), res.session()
>>> wire = ini_session.encrypt_frame(b"job frame")
>>> len(wire) == LENGTH_CIPHERTEXT_SIZE + len(b"job frame") + TAG_SIZE
True
>>> res_session.decrypt_frame(wire)
b'job frame'
>>> res_session.decrypt_frame(wire)          # replay: nonce moved on
Traceback (most recent call last):
    ...
repro.core.errors.FrameAuthenticationError: frame body failed authentication
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass, field
from typing import Callable

from ..core.errors import FrameAuthenticationError, HandshakeError
from ..crypto.symmetric import StreamCipher
from .frames import FRAME_HEADER, check_frame_length

#: Hashed into the initial handshake digest; both sides must agree on it.
PROTOCOL_NAME = b"Noise_XK_repro+stream+hmacsha256"

#: Simulated Diffie-Hellman group (shared with the Sphinx runtime).
GROUP_PRIME = 2**255 - 19
GROUP_ORDER = GROUP_PRIME - 1
GENERATOR = 5

#: Serialised group-element width (bytes).
PUBLIC_KEY_SIZE = 32
#: Static/ephemeral secret width (bytes).
SECRET_KEY_SIZE = 32
#: Truncated HMAC-SHA256 authentication tag per AEAD call.
TAG_SIZE = 16
#: Wire bytes of one encrypted length prefix (the plain ``>I`` header + tag).
LENGTH_CIPHERTEXT_SIZE = FRAME_HEADER.size + TAG_SIZE
#: Messages a single session key may protect before rotating (BOLT #8 also
#: rotates every 1000).
REKEY_INTERVAL = 1000

#: Handshake message sizes: version byte + ephemeral + tag, and
#: version byte + encrypted static (32 + 16) + tag.
ACT_ONE_SIZE = 1 + PUBLIC_KEY_SIZE + TAG_SIZE
ACT_TWO_SIZE = 1 + PUBLIC_KEY_SIZE + TAG_SIZE
ACT_THREE_SIZE = 1 + PUBLIC_KEY_SIZE + TAG_SIZE + TAG_SIZE

_HANDSHAKE_VERSION = b"\x00"
_NONCE = struct.Struct("<Q")


# -- primitives ---------------------------------------------------------------------


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def _hkdf2(salt: bytes, ikm: bytes) -> tuple[bytes, bytes]:
    """HKDF-SHA256 extract-and-expand into exactly two 32-byte keys."""
    prk = hmac.new(salt, ikm, hashlib.sha256).digest()
    first = hmac.new(prk, b"\x01", hashlib.sha256).digest()
    second = hmac.new(prk, first + b"\x02", hashlib.sha256).digest()
    return first, second


def _element_from_bytes(data: bytes) -> int:
    if len(data) != PUBLIC_KEY_SIZE:
        raise HandshakeError(
            f"group elements are {PUBLIC_KEY_SIZE} bytes, got {len(data)}"
        )
    element = int.from_bytes(data, "big")
    if not 2 <= element < GROUP_PRIME:
        raise HandshakeError("invalid group element")
    return element


@dataclass(frozen=True)
class StaticKeyPair:
    """A long-lived transport identity: 32-byte secret, derived public key.

    The group scalar is derived from the secret by hashing (mirroring the
    Sphinx runtime's key derivation), so a key file only ever stores the
    32 secret bytes.

    >>> pair = StaticKeyPair.from_secret(b"\\x07" * 32)
    >>> len(pair.public)
    32
    >>> pair.public == StaticKeyPair.from_secret(b"\\x07" * 32).public
    True
    """

    secret: bytes

    def __post_init__(self) -> None:
        if len(self.secret) != SECRET_KEY_SIZE:
            raise HandshakeError(
                f"static secrets are {SECRET_KEY_SIZE} bytes, got {len(self.secret)}"
            )

    @classmethod
    def from_secret(cls, secret: bytes) -> "StaticKeyPair":
        return cls(secret=bytes(secret))

    @classmethod
    def generate(
        cls, entropy: Callable[[int], bytes] = os.urandom
    ) -> "StaticKeyPair":
        return cls(secret=bytes(entropy(SECRET_KEY_SIZE)))

    @property
    def scalar(self) -> int:
        digest = _sha256(b"repro-net-dh" + self.secret)
        return 1 + int.from_bytes(digest, "big") % (GROUP_ORDER - 1)

    @property
    def public(self) -> bytes:
        return pow(GENERATOR, self.scalar, GROUP_PRIME).to_bytes(
            PUBLIC_KEY_SIZE, "big"
        )

    def ecdh(self, remote_public: bytes) -> bytes:
        """The shared secret with ``remote_public`` (hashed group product)."""
        shared = pow(_element_from_bytes(remote_public), self.scalar, GROUP_PRIME)
        return _sha256(b"repro-net-ecdh" + shared.to_bytes(PUBLIC_KEY_SIZE, "big"))


# -- AEAD ---------------------------------------------------------------------------


def _keyed_mac(key: bytes) -> hmac.HMAC:
    return hmac.new(key, digestmod=hashlib.sha256)


def _tag(mac: hmac.HMAC, nonce_bytes: bytes, associated_data: bytes, ciphertext: bytes) -> bytes:
    tag = mac.copy()
    tag.update(nonce_bytes)
    tag.update(associated_data)
    tag.update(ciphertext)
    return tag.digest()[:TAG_SIZE]


def _seal(
    key: bytes, mac: hmac.HMAC, nonce: int, associated_data: bytes, plaintext: bytes
) -> bytes:
    nonce_bytes = _NONCE.pack(nonce)
    ciphertext = StreamCipher(key).encrypt(plaintext, nonce_bytes) if plaintext else b""
    return ciphertext + _tag(mac, nonce_bytes, associated_data, ciphertext)


def _open(key: bytes, mac: hmac.HMAC, nonce: int, associated_data: bytes, data: bytes) -> bytes:
    if len(data) < TAG_SIZE:
        raise FrameAuthenticationError("ciphertext shorter than its tag")
    ciphertext, tag = data[:-TAG_SIZE], data[-TAG_SIZE:]
    nonce_bytes = _NONCE.pack(nonce)
    if not hmac.compare_digest(tag, _tag(mac, nonce_bytes, associated_data, ciphertext)):
        raise FrameAuthenticationError("frame body failed authentication")
    return StreamCipher(key).decrypt(ciphertext, nonce_bytes) if ciphertext else b""


def aead_encrypt(key: bytes, nonce: int, associated_data: bytes, plaintext: bytes) -> bytes:
    """Encrypt-then-MAC with the repo's keystream cipher: ct || 16-byte tag.

    Stands in for ChaCha20-Poly1305: a 64-bit little-endian nonce feeds the
    counter-mode keystream, and the tag (HMAC-SHA256 under ``key``) binds
    nonce, associated data and ciphertext.
    """
    return _seal(key, _keyed_mac(key), nonce, associated_data, plaintext)


def aead_decrypt(key: bytes, nonce: int, associated_data: bytes, data: bytes) -> bytes:
    """Verify the tag, then decrypt; raises on any mismatch.

    :raises FrameAuthenticationError: truncated input or failed tag check.
    """
    return _open(key, _keyed_mac(key), nonce, associated_data, data)


# -- cipher state -------------------------------------------------------------------


@dataclass
class CipherState:
    """One direction of an established session: key, nonce, rotation chain.

    The nonce increases by one per message and never repeats under a key;
    after :data:`REKEY_INTERVAL` messages the key ratchets forward through
    the chaining key (and the old key is unrecoverable — forward secrecy
    within the session).  The HMAC is keyed once per key, not once per
    frame; each frame's tag starts from a copy of it.

    >>> state = CipherState(key=b"k" * 32, chaining_key=b"c" * 32)
    >>> peer = CipherState(key=b"k" * 32, chaining_key=b"c" * 32)
    >>> peer.decrypt(b"", state.encrypt(b"", b"hello"))
    b'hello'
    >>> state.nonce, peer.nonce
    (1, 1)
    """

    key: bytes
    chaining_key: bytes
    nonce: int = 0
    messages_protected: int = field(default=0, repr=False)
    _mac: hmac.HMAC = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._mac = _keyed_mac(self.key)

    def __getstate__(self) -> dict:
        # Keyed HMACs neither copy nor pickle; copies rebuild them from ``key``.
        return {name: value for name, value in vars(self).items() if name != "_mac"}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self.__post_init__()

    def encrypt(self, associated_data: bytes, plaintext: bytes) -> bytes:
        data = _seal(self.key, self._mac, self.nonce, associated_data, plaintext)
        self._advance()
        return data

    def decrypt(self, associated_data: bytes, data: bytes) -> bytes:
        plaintext = _open(self.key, self._mac, self.nonce, associated_data, data)
        self._advance()
        return plaintext

    def _advance(self) -> None:
        self.nonce += 1
        self.messages_protected += 1
        if self.nonce >= REKEY_INTERVAL:
            self.rotate()

    def rotate(self) -> None:
        """Ratchet to a fresh key through the chaining key; reset the nonce."""
        self.chaining_key, self.key = _hkdf2(self.chaining_key, self.key)
        self._mac = _keyed_mac(self.key)
        self.nonce = 0


class SecureSession:
    """An established connection's two cipher states plus its peer identity.

    A session of the :mod:`repro.net.frames` layer (the plain one is
    :data:`~repro.net.frames.PLAIN`): each frame becomes an encrypted
    4-byte length prefix (so even frame boundaries are hidden) followed by
    the encrypted payload, each carrying its own tag.  The frame readers
    drive the incremental ``decrypt_length`` / ``decrypt_body`` pair;
    ``decrypt_frame`` opens one complete wire message.
    """

    header_size = LENGTH_CIPHERTEXT_SIZE

    def __init__(
        self,
        send_cipher: CipherState,
        recv_cipher: CipherState,
        remote_public: bytes,
        handshake_hash: bytes,
    ) -> None:
        self.send_cipher = send_cipher
        self.recv_cipher = recv_cipher
        self.remote_public = remote_public
        self.handshake_hash = handshake_hash

    def encrypt_frame(self, payload: bytes) -> bytes:
        """One plaintext frame payload -> its complete secure wire message."""
        length = FRAME_HEADER.pack(check_frame_length(len(payload)))
        return self.send_cipher.encrypt(b"", length) + self.send_cipher.encrypt(b"", payload)

    def encrypt_frames(
        self, lead: bytes, frames: list[bytes], buffer: bytearray
    ) -> list[bytes]:
        """One AEAD wire message per frame, ``lead`` first (``buffer`` unused).

        Callers hand the result to the transport with no ``await`` in
        between, so nonce order always matches wire order even when several
        senders share the connection.
        """
        return [self.encrypt_frame(lead), *map(self.encrypt_frame, frames)]

    def decrypt_length(self, header: bytes) -> int:
        """Open an encrypted length prefix; returns the body's wire size."""
        if len(header) != LENGTH_CIPHERTEXT_SIZE:
            raise FrameAuthenticationError(
                f"encrypted length prefixes are {LENGTH_CIPHERTEXT_SIZE} bytes, "
                f"got {len(header)}"
            )
        (length,) = FRAME_HEADER.unpack(self.recv_cipher.decrypt(b"", header))
        return check_frame_length(length) + TAG_SIZE

    def decrypt_body(self, body: bytes) -> bytes:
        """Open a frame body read after :meth:`decrypt_length`."""
        return self.recv_cipher.decrypt(b"", body)

    def decrypt_frame(self, data: bytes) -> bytes:
        """Open one complete secure wire message (tests and doctests)."""
        if len(data) < LENGTH_CIPHERTEXT_SIZE:
            raise FrameAuthenticationError("truncated encrypted length prefix")
        body_size = self.decrypt_length(data[:LENGTH_CIPHERTEXT_SIZE])
        body = data[LENGTH_CIPHERTEXT_SIZE:]
        if len(body) != body_size:
            raise FrameAuthenticationError(
                f"frame body is {len(body)} bytes, expected {body_size}"
            )
        return self.decrypt_body(body)


# -- handshake ----------------------------------------------------------------------


class HandshakeState:
    """The three-act Noise XK handshake as a pure state machine.

    Build one side with :meth:`initiator` (requires the responder's static
    public key) or :meth:`responder`, feed acts across in order, then call
    :meth:`session`.  Any MAC failure, malformed element or out-of-order act
    raises :class:`~repro.core.errors.HandshakeError` and poisons the state.
    """

    def __init__(
        self,
        role: str,
        local_static: StaticKeyPair,
        remote_static: bytes | None,
        prologue: bytes,
        entropy: Callable[[int], bytes],
    ) -> None:
        if role not in ("initiator", "responder"):
            raise HandshakeError(f"unknown handshake role {role!r}")
        if role == "initiator" and remote_static is None:
            raise HandshakeError(
                "the initiator must know the responder's static public key"
            )
        self.role = role
        self.local_static = local_static
        self.remote_static = remote_static
        self.entropy = entropy
        self._ephemeral: StaticKeyPair | None = None
        self._remote_ephemeral: bytes | None = None
        self._temp_key = b""
        self._stage = 0
        self._failed = False
        # h/ck initialisation, exactly as BOLT #8 prescribes; the responder
        # mixes in its *own* static key, which is why an initiator dialling
        # with the wrong expected key fails act one.
        self.hash = _sha256(PROTOCOL_NAME)
        self.chaining_key = self.hash
        self.hash = _sha256(self.hash + prologue)
        anchor = remote_static if role == "initiator" else local_static.public
        self.hash = _sha256(self.hash + anchor)

    @classmethod
    def initiator(
        cls,
        local_static: StaticKeyPair,
        remote_static: bytes,
        prologue: bytes = b"",
        entropy: Callable[[int], bytes] = os.urandom,
    ) -> "HandshakeState":
        _element_from_bytes(remote_static)
        return cls("initiator", local_static, bytes(remote_static), prologue, entropy)

    @classmethod
    def responder(
        cls,
        local_static: StaticKeyPair,
        prologue: bytes = b"",
        entropy: Callable[[int], bytes] = os.urandom,
    ) -> "HandshakeState":
        return cls("responder", local_static, None, prologue, entropy)

    # -- shared helpers -------------------------------------------------------------

    def _expect(self, stage: int, role: str) -> None:
        if self._failed:
            raise HandshakeError("handshake already failed; start a new one")
        if self.role != role or self._stage != stage:
            raise HandshakeError(
                f"handshake act out of order (stage {self._stage}, role {self.role})"
            )

    def _mix_hash(self, data: bytes) -> None:
        self.hash = _sha256(self.hash + data)

    def _mix_key(self, ikm: bytes) -> None:
        self.chaining_key, self._temp_key = _hkdf2(self.chaining_key, ikm)

    def _ephemeral_keypair(self) -> StaticKeyPair:
        if self._ephemeral is None:
            self._ephemeral = StaticKeyPair.generate(self.entropy)
        return self._ephemeral

    def _decrypt(self, nonce: int, data: bytes) -> bytes:
        try:
            return aead_decrypt(self._temp_key, nonce, self.hash, data)
        except FrameAuthenticationError:
            self._failed = True
            raise HandshakeError(
                "handshake MAC check failed (wrong static key or tampered act)"
            ) from None

    @staticmethod
    def _parse_act(data: bytes, size: int, act: str) -> bytes:
        if len(data) != size:
            raise HandshakeError(f"{act} must be {size} bytes, got {len(data)}")
        if data[:1] != _HANDSHAKE_VERSION:
            raise HandshakeError(f"unsupported {act} version byte {data[0]!r}")
        return data[1:]

    # -- act one --------------------------------------------------------------------

    def write_act_one(self) -> bytes:
        self._expect(0, "initiator")
        ephemeral = self._ephemeral_keypair()
        self._mix_hash(ephemeral.public)
        self._mix_key(ephemeral.ecdh(self.remote_static))
        tag = aead_encrypt(self._temp_key, 0, self.hash, b"")
        self._mix_hash(tag)
        self._stage = 1
        return _HANDSHAKE_VERSION + ephemeral.public + tag

    def read_act_one(self, data: bytes) -> None:
        self._expect(0, "responder")
        body = self._parse_act(data, ACT_ONE_SIZE, "act one")
        remote_ephemeral, tag = body[:PUBLIC_KEY_SIZE], body[PUBLIC_KEY_SIZE:]
        _element_from_bytes(remote_ephemeral)
        self._remote_ephemeral = remote_ephemeral
        self._mix_hash(remote_ephemeral)
        self._mix_key(self.local_static.ecdh(remote_ephemeral))
        self._decrypt(0, tag)
        self._mix_hash(tag)
        self._stage = 1

    # -- act two --------------------------------------------------------------------

    def write_act_two(self) -> bytes:
        self._expect(1, "responder")
        ephemeral = self._ephemeral_keypair()
        self._mix_hash(ephemeral.public)
        self._mix_key(ephemeral.ecdh(self._remote_ephemeral))
        tag = aead_encrypt(self._temp_key, 0, self.hash, b"")
        self._mix_hash(tag)
        self._stage = 2
        return _HANDSHAKE_VERSION + ephemeral.public + tag

    def read_act_two(self, data: bytes) -> None:
        self._expect(1, "initiator")
        body = self._parse_act(data, ACT_TWO_SIZE, "act two")
        remote_ephemeral, tag = body[:PUBLIC_KEY_SIZE], body[PUBLIC_KEY_SIZE:]
        _element_from_bytes(remote_ephemeral)
        self._remote_ephemeral = remote_ephemeral
        self._mix_hash(remote_ephemeral)
        self._mix_key(self._ephemeral_keypair().ecdh(remote_ephemeral))
        self._decrypt(0, tag)
        self._mix_hash(tag)
        self._stage = 2

    # -- act three ------------------------------------------------------------------

    def write_act_three(self) -> bytes:
        self._expect(2, "initiator")
        encrypted_static = aead_encrypt(
            self._temp_key, 1, self.hash, self.local_static.public
        )
        self._mix_hash(encrypted_static)
        self._mix_key(self.local_static.ecdh(self._remote_ephemeral))
        tag = aead_encrypt(self._temp_key, 0, self.hash, b"")
        self._mix_hash(tag)
        self._stage = 3
        return _HANDSHAKE_VERSION + encrypted_static + tag

    def read_act_three(self, data: bytes) -> bytes:
        """Consume act three; returns the initiator's authenticated static key.

        The caller (the responder-side adapter) checks the returned key
        against its allowlist *before* exchanging any application frame.
        """
        self._expect(2, "responder")
        body = self._parse_act(data, ACT_THREE_SIZE, "act three")
        encrypted_static = body[: PUBLIC_KEY_SIZE + TAG_SIZE]
        tag = body[PUBLIC_KEY_SIZE + TAG_SIZE :]
        remote_static = self._decrypt(1, encrypted_static)
        _element_from_bytes(remote_static)
        self._mix_hash(encrypted_static)
        self._mix_key(self._ephemeral_keypair().ecdh(remote_static))
        self._decrypt(0, tag)
        self._mix_hash(tag)
        self.remote_static = remote_static
        self._stage = 3
        return remote_static

    # -- transport keys -------------------------------------------------------------

    def session(self) -> SecureSession:
        """Derive the transport cipher states once all three acts are done."""
        if self._stage != 3 or self._failed:
            raise HandshakeError("handshake incomplete; no transport keys yet")
        sending, receiving = _hkdf2(self.chaining_key, b"")
        if self.role == "responder":
            sending, receiving = receiving, sending
        return SecureSession(
            send_cipher=CipherState(key=sending, chaining_key=self.chaining_key),
            recv_cipher=CipherState(key=receiving, chaining_key=self.chaining_key),
            remote_public=self.remote_static,
            handshake_hash=self.hash,
        )
