"""Property and end-to-end tests for the authenticated secure transport.

The handshake/cipher layer (:mod:`repro.net.secure`) is pure logic, so the
property tests drive it entirely in memory with deterministic entropy; the
adapter tests run the sync and asyncio flavours against each other over real
sockets; and the end-to-end tests assert the load-bearing guarantee of the
whole stack: a ``--transport secure`` distributed run merges to an artifact
byte-identical to the single-process plaintext run, while a tampered frame
or an unauthorized static key is rejected before any job frame is processed.
"""

import asyncio
import hashlib
import itertools
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    FrameAuthenticationError,
    HandshakeError,
    KeyFileError,
)
from repro.experiments import run_distributed, run_experiment, run_worker
from repro.experiments.__main__ import main as experiments_main
from repro.net import (
    StaticKeyPair,
    TransportCredential,
    load_allowlist,
    load_keypair,
    load_public_key,
    write_keypair,
)
from repro.net.channel import accept_aio, accept_sync, connect_sync
from repro.net.secure import (
    REKEY_INTERVAL,
    TAG_SIZE,
    HandshakeState,
    aead_decrypt,
    aead_encrypt,
)

SMALL = 0.03


def keypair(tag: bytes) -> StaticKeyPair:
    """A deterministic static keypair from a test label (secrets are 32B)."""
    return StaticKeyPair.from_secret(hashlib.sha256(tag).digest())


def entropy_from(seed: bytes):
    """A deterministic ``os.urandom`` stand-in: a counter-mode SHA-256 feed."""
    counter = itertools.count()

    def entropy(size: int) -> bytes:
        stream = b""
        label = next(counter).to_bytes(8, "big")
        while len(stream) < size:
            stream += hashlib.sha256(
                seed + label + len(stream).to_bytes(8, "big")
            ).digest()
        return stream[:size]

    return entropy


def complete_handshake(
    initiator_pair: StaticKeyPair,
    responder_pair: StaticKeyPair,
    seed: bytes = b"",
    prologue: bytes = b"",
):
    """Run all three acts in memory; returns (initiator, responder) sessions."""
    initiator = HandshakeState.initiator(
        initiator_pair,
        responder_pair.public,
        prologue=prologue,
        entropy=entropy_from(seed + b"i"),
    )
    responder = HandshakeState.responder(
        responder_pair, prologue=prologue, entropy=entropy_from(seed + b"r")
    )
    responder.read_act_one(initiator.write_act_one())
    initiator.read_act_two(responder.write_act_two())
    remote = responder.read_act_three(initiator.write_act_three())
    assert remote == initiator_pair.public
    return initiator.session(), responder.session()


secrets = st.binary(min_size=1, max_size=48)
seeds = st.binary(min_size=0, max_size=16)
payloads = st.lists(st.binary(max_size=256), min_size=1, max_size=6)


# -- handshake properties -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(secret_i=secrets, secret_r=secrets, seed=seeds, messages=payloads)
def test_handshake_transcript_round_trip(secret_i, secret_r, seed, messages):
    pair_i = keypair(b"i" + secret_i)
    pair_r = keypair(b"r" + secret_r)
    session_i, session_r = complete_handshake(pair_i, pair_r, seed)
    # Both sides bind the same transcript and authenticate each other.
    assert session_i.handshake_hash == session_r.handshake_hash
    assert session_i.remote_public == pair_r.public
    assert session_r.remote_public == pair_i.public
    # Frames round-trip in both directions, interleaved.
    for message in messages:
        assert session_r.decrypt_frame(session_i.encrypt_frame(message)) == message
        assert session_i.decrypt_frame(session_r.encrypt_frame(message)) == message


@settings(max_examples=25, deadline=None)
@given(secret_i=secrets, secret_r=secrets, secret_x=secrets, seed=seeds)
def test_wrong_responder_static_key_fails_act_one(
    secret_i, secret_r, secret_x, seed
):
    pair_i = keypair(b"i" + secret_i)
    pair_r = keypair(b"r" + secret_r)
    expected = keypair(b"x" + secret_x)
    if expected.public == pair_r.public:  # pragma: no cover - astronomically rare
        return
    # The initiator dials with the wrong expected static key: the responder's
    # very first MAC check fails, before any identity or payload crosses.
    initiator = HandshakeState.initiator(
        pair_i, expected.public, entropy=entropy_from(seed + b"i")
    )
    responder = HandshakeState.responder(pair_r, entropy=entropy_from(seed + b"r"))
    with pytest.raises(HandshakeError, match="MAC check failed"):
        responder.read_act_one(initiator.write_act_one())
    # The failure poisons the state: no transport keys can ever be derived.
    with pytest.raises(HandshakeError):
        responder.session()


@settings(max_examples=25, deadline=None)
@given(seed=seeds, act=st.integers(0, 2), index=st.integers(1, 48))
def test_tampered_handshake_act_is_rejected(seed, act, index):
    pair_i = keypair(seed + b"tamper-i")
    pair_r = keypair(seed + b"tamper-r")
    initiator = HandshakeState.initiator(
        pair_i, pair_r.public, entropy=entropy_from(seed + b"i")
    )
    responder = HandshakeState.responder(pair_r, entropy=entropy_from(seed + b"r"))
    acts = []
    acts.append(initiator.write_act_one())
    if act == 0:
        flipped = bytearray(acts[0])
        flipped[index % len(flipped)] ^= 0x40
        with pytest.raises(HandshakeError):
            responder.read_act_one(bytes(flipped))
        return
    responder.read_act_one(acts[0])
    acts.append(responder.write_act_two())
    if act == 1:
        flipped = bytearray(acts[1])
        flipped[index % len(flipped)] ^= 0x40
        with pytest.raises(HandshakeError):
            initiator.read_act_two(bytes(flipped))
        return
    initiator.read_act_two(acts[1])
    flipped = bytearray(initiator.write_act_three())
    flipped[index % len(flipped)] ^= 0x40
    with pytest.raises(HandshakeError):
        responder.read_act_three(bytes(flipped))


def test_handshake_acts_out_of_order_are_rejected():
    pair_i = keypair(b"order-i")
    pair_r = keypair(b"order-r")
    initiator = HandshakeState.initiator(pair_i, pair_r.public)
    with pytest.raises(HandshakeError, match="out of order"):
        initiator.write_act_three()
    with pytest.raises(HandshakeError, match="out of order"):
        initiator.read_act_one(b"\x00" * 49)
    with pytest.raises(HandshakeError, match="incomplete"):
        initiator.session()


# -- transport-frame properties -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(seed=seeds, message=st.binary(max_size=256))
def test_replayed_frame_is_rejected(seed, message):
    pair_i = keypair(seed + b"replay-i")
    pair_r = keypair(seed + b"replay-r")
    session_i, session_r = complete_handshake(pair_i, pair_r, seed)
    wire = session_i.encrypt_frame(message)
    assert session_r.decrypt_frame(wire) == message
    # The receive nonce advanced, so the identical bytes no longer verify.
    with pytest.raises(FrameAuthenticationError):
        session_r.decrypt_frame(wire)


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    message=st.binary(max_size=256),
    index=st.integers(0, 10_000),
    truncate=st.booleans(),
)
def test_tampered_or_truncated_frame_is_rejected(seed, message, index, truncate):
    pair_i = keypair(seed + b"mangle-i")
    pair_r = keypair(seed + b"mangle-r")
    session_i, session_r = complete_handshake(pair_i, pair_r, seed)
    wire = session_i.encrypt_frame(message)
    if truncate:
        mangled = wire[: index % len(wire)]
    else:
        flipped = bytearray(wire)
        flipped[index % len(flipped)] ^= 0x01
        mangled = bytes(flipped)
    with pytest.raises(FrameAuthenticationError):
        session_r.decrypt_frame(mangled)


def test_nonces_advance_and_keys_rotate_across_the_rekey_interval():
    pair_i = keypair(b"rekey-i")
    pair_r = keypair(b"rekey-r")
    session_i, session_r = complete_handshake(pair_i, pair_r)
    first_key = session_i.send_cipher.key
    # Each frame costs two nonces (length prefix + body), so this crosses
    # the REKEY_INTERVAL boundary with room to spare.
    for sequence in range(REKEY_INTERVAL // 2 + 4):
        message = b"frame %d" % sequence
        assert session_r.decrypt_frame(session_i.encrypt_frame(message)) == message
    assert session_i.send_cipher.key != first_key
    assert session_r.recv_cipher.key == session_i.send_cipher.key
    assert session_i.send_cipher.nonce < REKEY_INTERVAL


def test_aead_rejects_nonce_and_associated_data_mismatch():
    key = b"k" * 32
    sealed = aead_encrypt(key, 7, b"ad", b"payload")
    assert aead_decrypt(key, 7, b"ad", sealed) == b"payload"
    with pytest.raises(FrameAuthenticationError):
        aead_decrypt(key, 8, b"ad", sealed)  # nonce reuse/skew
    with pytest.raises(FrameAuthenticationError):
        aead_decrypt(key, 7, b"other", sealed)
    with pytest.raises(FrameAuthenticationError):
        aead_decrypt(key, 7, b"ad", sealed[:TAG_SIZE - 1])


# -- adapter interop ----------------------------------------------------------------


def _handshake_sockets():
    server, client = socket.socketpair()
    server.settimeout(10)
    client.settimeout(10)
    return server, client


def test_sync_adapters_interoperate_and_enforce_the_allowlist():
    coordinator = keypair(b"sync-coordinator")
    worker = keypair(b"sync-worker")
    responder = TransportCredential(coordinator, frozenset({worker.public}))
    server, client = _handshake_sockets()
    accepted = {}

    def serve():
        accepted["channel"] = accept_sync(server, responder)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    channel = connect_sync(client, TransportCredential(worker, remote_public=coordinator.public))
    thread.join(timeout=10)
    assert not thread.is_alive()
    channel.send_frame(b"hello over sync")
    assert accepted["channel"].recv_frame() == b"hello over sync"
    accepted["channel"].send_frame(b"hello back")
    assert channel.recv_frame() == b"hello back"
    server.close()
    client.close()

    # A rogue key completes the handshake crypto but is rejected by the
    # allowlist before any application frame is exchanged.
    rogue = keypair(b"sync-rogue")
    server, client = _handshake_sockets()
    errors = {}

    def serve_rejecting():
        try:
            accept_sync(server, responder)
        except HandshakeError as exc:
            errors["server"] = str(exc)

    thread = threading.Thread(target=serve_rejecting, daemon=True)
    thread.start()
    connect_sync(client, TransportCredential(rogue, remote_public=coordinator.public))
    thread.join(timeout=10)
    assert "unauthorized static key" in errors["server"]
    server.close()
    client.close()


def test_sync_worker_interoperates_with_aio_acceptor():
    coordinator = keypair(b"interop-coordinator")
    worker = keypair(b"interop-worker")

    async def main():
        loop = asyncio.get_running_loop()
        received = []

        async def handle(reader, writer):
            responder = TransportCredential(coordinator, frozenset({worker.public}))
            channel = await accept_aio(reader, writer, responder)
            received.append(await channel.recv_frame())
            await channel.send_frame(b"ack from aio")
            writer.close()

        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]

        def sync_client():
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                initiator = TransportCredential(worker, remote_public=coordinator.public)
                channel = connect_sync(sock, initiator)
                channel.send_frame(b"hello from sync")
                return channel.recv_frame()

        reply = await loop.run_in_executor(None, sync_client)
        server.close()
        await server.wait_closed()
        return received, reply

    received, reply = asyncio.run(main())
    assert received == [b"hello from sync"]
    assert reply == b"ack from aio"


# -- key files ----------------------------------------------------------------------


def test_keypair_files_round_trip_and_refuse_overwrite(tmp_path):
    path = tmp_path / "node.key"
    pair = write_keypair(path)
    assert path.stat().st_mode & 0o777 == 0o600
    assert load_keypair(path) == pair
    assert load_public_key(tmp_path / "node.key.pub") == pair.public
    with pytest.raises(KeyFileError, match="refusing to overwrite"):
        write_keypair(path)


def test_allowlist_parses_comments_and_rejects_empty(tmp_path):
    pair_a = keypair(b"allow-a")
    pair_b = keypair(b"allow-b")
    allowlist = tmp_path / "authorized"
    allowlist.write_text(
        "# fleet workers\n"
        f"{pair_a.public.hex()}\n"
        "\n"
        f"  {pair_b.public.hex()}  # rack 2\n",
        encoding="utf-8",
    )
    assert load_allowlist(allowlist) == frozenset({pair_a.public, pair_b.public})
    empty = tmp_path / "empty"
    empty.write_text("# nothing here\n", encoding="utf-8")
    with pytest.raises(KeyFileError, match="no keys"):
        load_allowlist(empty)


def test_ephemeral_credential_trusts_only_itself():
    credential = TransportCredential.ephemeral()
    assert credential.is_authorized(credential.keypair.public)
    other = keypair(b"someone else")
    assert not credential.is_authorized(other.public)


# -- end to end through the distributed substrate -----------------------------------


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _fleet_credentials():
    coordinator = keypair(b"e2e-coordinator")
    worker = keypair(b"e2e-worker")
    return (
        TransportCredential(
            keypair=coordinator, authorized=frozenset({worker.public})
        ),
        TransportCredential(keypair=worker, remote_public=coordinator.public),
    )


def test_secure_distributed_run_matches_plaintext_single_process_bytes(tmp_path):
    single = run_experiment("fig16", scale=SMALL, out_dir=tmp_path / "single")
    coordinator_cred, worker_cred = _fleet_credentials()
    port = _free_port()
    exit_codes = []
    threads = [
        threading.Thread(
            target=lambda rank=rank: exit_codes.append(
                run_worker(
                    host="127.0.0.1",
                    port=port,
                    label=f"s{rank}",
                    transport="secure",
                    credential=worker_cred,
                )
            ),
            daemon=True,
        )
        for rank in range(2)
    ]
    for thread in threads:
        thread.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "secure",
        port=port,
        min_workers=2,
        timeout=120,
        transport="secure",
        credential=coordinator_cred,
    )
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert exit_codes == [0, 0]
    assert result.transport == "secure"
    assert result.workers_seen == 2
    assert (tmp_path / "secure" / "fig16.json").read_bytes() == (
        tmp_path / "single" / "fig16.json"
    ).read_bytes()


def test_unauthorized_worker_is_rejected_before_any_job_frame(tmp_path):
    coordinator_cred, worker_cred = _fleet_credentials()
    rogue_cred = TransportCredential(
        keypair=keypair(b"e2e-rogue"),
        remote_public=coordinator_cred.keypair.public,
    )
    port = _free_port()
    rogue_codes = []
    rogue = threading.Thread(
        target=lambda: rogue_codes.append(
            run_worker(
                host="127.0.0.1",
                port=port,
                label="rogue",
                transport="secure",
                credential=rogue_cred,
                log=lambda message: None,
            )
        ),
        daemon=True,
    )
    good = threading.Thread(
        target=run_worker,
        kwargs={
            "host": "127.0.0.1",
            "port": port,
            "label": "good",
            "transport": "secure",
            "credential": worker_cred,
        },
        daemon=True,
    )
    rogue.start()
    good.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "out",
        port=port,
        min_workers=1,
        timeout=120,
        transport="secure",
        credential=coordinator_cred,
    )
    rogue.join(timeout=30)
    good.join(timeout=30)
    # The rogue never joined the job: only the allowlisted worker was seen,
    # and the rogue's run_worker exited non-zero at the handshake.
    assert result.workers_seen == 1
    assert rogue_codes == [1]


def test_plain_worker_cannot_join_a_secure_coordinator(tmp_path):
    # A plaintext hello against the secure acceptor dies at the handshake
    # layer (its bytes are not a valid act one), before the protocol runs.
    coordinator_cred, worker_cred = _fleet_credentials()
    port = _free_port()
    plain_codes = []
    plain = threading.Thread(
        target=lambda: plain_codes.append(
            run_worker(
                host="127.0.0.1",
                port=port,
                label="plain",
                connect_timeout=5,
                log=lambda message: None,
            )
        ),
        daemon=True,
    )
    good = threading.Thread(
        target=run_worker,
        kwargs={
            "host": "127.0.0.1",
            "port": port,
            "label": "good",
            "transport": "secure",
            "credential": worker_cred,
        },
        daemon=True,
    )
    plain.start()
    good.start()
    result = run_distributed(
        "fig16",
        scale=SMALL,
        out_dir=tmp_path / "out",
        port=port,
        min_workers=1,
        timeout=120,
        transport="secure",
        credential=coordinator_cred,
    )
    plain.join(timeout=30)
    good.join(timeout=30)
    assert result.workers_seen == 1
    assert plain_codes == [1]


def test_run_distributed_validates_secure_arguments(tmp_path):
    with pytest.raises(ValueError, match="transport"):
        run_distributed("fig16", scale=SMALL, transport="carrier-pigeon")
    with pytest.raises(ValueError, match="TransportCredential"):
        run_distributed(
            "fig16", scale=SMALL, transport="secure", workers=0, min_workers=1
        )


# -- CLI validation -----------------------------------------------------------------


def test_cli_worker_rejects_unresolvable_host(capsys):
    assert (
        experiments_main(
            ["worker", "--host", "no-such-host.invalid", "--port", "47613"]
        )
        == 2
    )
    assert "cannot resolve host" in capsys.readouterr().err


def test_cli_rejects_bad_ports(capsys):
    assert experiments_main(["worker", "--port", "0"]) == 2
    assert "not 0" in capsys.readouterr().err
    assert experiments_main(["worker", "--port", "70000"]) == 2
    assert "outside the valid range" in capsys.readouterr().err
    assert experiments_main(["coordinate", "fig16", "--port", "80"]) == 2
    assert "privileged" in capsys.readouterr().err


def test_cli_secure_transport_requires_key_files(capsys):
    assert experiments_main(["worker", "--port", "47613", "--transport", "secure"]) == 2
    assert "--keyfile" in capsys.readouterr().err
    assert (
        experiments_main(
            ["coordinate", "fig16", "--port", "47613", "--transport", "secure"]
        )
        == 2
    )
    assert "--keyfile" in capsys.readouterr().err


def test_cli_secure_transport_requires_companion_flags(tmp_path, capsys):
    keyfile = tmp_path / "w.key"
    write_keypair(keyfile)
    assert (
        experiments_main(
            [
                "worker",
                "--port",
                "47613",
                "--transport",
                "secure",
                "--keyfile",
                str(keyfile),
            ]
        )
        == 2
    )
    assert "--coordinator-key" in capsys.readouterr().err
    assert (
        experiments_main(
            [
                "coordinate",
                "fig16",
                "--port",
                "47613",
                "--transport",
                "secure",
                "--keyfile",
                str(keyfile),
            ]
        )
        == 2
    )
    assert "--authorized-keys" in capsys.readouterr().err


def test_cli_key_flags_require_secure_transport(tmp_path, capsys):
    keyfile = tmp_path / "w.key"
    write_keypair(keyfile)
    assert (
        experiments_main(
            ["worker", "--port", "47613", "--keyfile", str(keyfile)]
        )
        == 2
    )
    assert "require --transport secure" in capsys.readouterr().err


def test_cli_run_transport_requires_dist(capsys):
    assert experiments_main(["run", "fig16", "--transport", "secure"]) == 2
    assert "--dist" in capsys.readouterr().err


def test_cli_keygen_writes_and_refuses_overwrite(tmp_path, capsys):
    path = tmp_path / "fleet.key"
    assert experiments_main(["keygen", str(path)]) == 0
    output = capsys.readouterr().out
    assert "public hex" in output
    assert load_keypair(path).public == load_public_key(tmp_path / "fleet.key.pub")
    assert experiments_main(["keygen", str(path)]) == 2
    assert "refusing to overwrite" in capsys.readouterr().err


def test_cli_secure_dist_round_trip(tmp_path, capsys):
    # `run --dist N --transport secure` provisions throwaway keys for its
    # spawned workers and still merges byte-identically.
    single = tmp_path / "single"
    dist = tmp_path / "dist"
    assert (
        experiments_main(
            ["run", "fig16", "--scale", str(SMALL), "--out", str(single)]
        )
        == 0
    )
    assert (
        experiments_main(
            [
                "run",
                "fig16",
                "--scale",
                str(SMALL),
                "--out",
                str(dist),
                "--dist",
                "2",
                "--transport",
                "secure",
            ]
        )
        == 0
    )
    assert "dist-workers=2" in capsys.readouterr().out
    assert (dist / "fig16.json").read_bytes() == (single / "fig16.json").read_bytes()
