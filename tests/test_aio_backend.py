"""The asyncio socket backend: backend parity and lifecycle.

Every protocol runtime (slicing, onion, onion-erasure) must deliver the same
plaintexts and produce the same relay/network counters on the ``aio``
backend as on the discrete-event simulator under a shared seed — timing
fields are clock-dependent and deliberately excluded.  These are the
in-process versions of what the CI ``aio-parity`` job asserts across whole
figure artifacts.
"""

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import PacketFormatError, SimulationError
from repro.experiments.runner import run_experiment
from repro.experiments.setup_latency import measure_setup
from repro.experiments.throughput import aggregate_throughput_vs_flows, measure_throughput
from repro.net.frames import encode_frame
from repro.overlay.aio import BATCH_HEADER, AioOverlayNetwork
from repro.overlay.profiles import LAN_PROFILE
from repro.overlay.runtime import build_substrate


def _lan_network(addresses, seed=0):
    return LAN_PROFILE.build_network(addresses, np.random.default_rng(seed))


# -- zero-copy framing --------------------------------------------------------------


@settings(deadline=None, max_examples=80)
@given(
    batch_id=st.integers(0, 2**64 - 1),
    frames=st.lists(st.binary(max_size=256), max_size=12),
)
def test_pack_batch_matches_encode_frame_reference(batch_id, frames):
    """The writelines chunk sequence joins to exactly the per-frame encoding."""
    from repro.overlay.aio import pack_batch

    buffer = bytearray()
    chunks = pack_batch(batch_id, frames, buffer)
    reference = encode_frame(BATCH_HEADER.pack(batch_id, len(frames))) + b"".join(
        encode_frame(frame) for frame in frames
    )
    assert b"".join(chunks) == reference
    # Payload chunks are the caller's bytes objects themselves — zero-copy.
    assert [chunk for chunk in chunks if isinstance(chunk, bytes)] == frames


def test_pack_batch_reuses_and_grows_the_buffer():
    from repro.overlay.aio import pack_batch

    buffer = bytearray()
    first = pack_batch(1, [b"a", b"bb"], buffer)
    grown = len(buffer)
    assert grown > 0
    joined_small = b"".join(pack_batch(2, [b"x"], buffer))
    assert len(buffer) == grown  # a smaller batch reuses the allocation
    del first
    pack_batch(3, [bytes(2) for _ in range(10)], buffer)
    assert len(buffer) > grown  # a larger batch grows it in place
    # Stale tail bytes from earlier batches never leak into the chunks.
    assert joined_small.endswith(b"x")


def test_pack_batch_rejects_oversized_frames_before_writing():
    from repro.net.frames import MAX_FRAME_BYTES
    from repro.overlay.aio import pack_batch

    with pytest.raises(PacketFormatError):
        pack_batch(1, [b"ok", bytes(MAX_FRAME_BYTES + 1)], bytearray())


# -- parity -------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("scheme", "kwargs"),
    [
        ("slicing", {"d": 2}),
        ("onion", {}),
        ("onion-erasure", {"d": 2, "d_prime": 3}),
    ],
)
def test_throughput_parity_with_simulator(scheme, kwargs):
    results = {
        backend: measure_throughput(
            scheme,
            LAN_PROFILE,
            path_length=2,
            num_messages=15,
            seed=42,
            backend=backend,
            **kwargs,
        )
        for backend in ("sim", "aio")
    }
    assert results["sim"].messages_delivered == 15
    assert results["sim"].parity_fields() == results["aio"].parity_fields()
    # The digest covers actual plaintext content, so this is end-to-end
    # delivery equivalence, not just equal counts.
    assert results["sim"].delivered_digest == results["aio"].delivered_digest != ""


@pytest.mark.parametrize(
    ("scheme", "d"), [("slicing", 2), ("slicing", 3), ("onion", 1)]
)
def test_setup_parity_with_simulator(scheme, d):
    sim = measure_setup(scheme, LAN_PROFILE, path_length=3, d=d, seed=17)
    aio = measure_setup(scheme, LAN_PROFILE, path_length=3, d=d, seed=17, backend="aio")
    assert sim.setup_complete and aio.setup_complete
    assert sim.parity_fields() == aio.parity_fields()
    assert aio.setup_seconds > 0


def test_aggregate_flows_parity_with_simulator():
    rows = {
        backend: aggregate_throughput_vs_flows(
            LAN_PROFILE,
            flow_counts=[2],
            overlay_size=24,
            path_length=3,
            d=2,
            num_messages=8,
            seed=9,
            backend=backend,
        )
        for backend in ("sim", "aio")
    }
    assert rows["sim"][0]["messages_delivered"] == 16
    assert rows["sim"][0]["parity"] == rows["aio"][0]["parity"]


def test_runner_parity_artifacts_are_byte_identical(tmp_path):
    """fig14 through the registry on both backends: same parity artifact."""
    paths = {}
    for backend in ("sim", "aio"):
        out = tmp_path / backend
        run_experiment("fig14", scale=0.02, out_dir=out, backend=backend)
        paths[backend] = out / "fig14.parity.json"
        assert paths[backend].exists()
    assert paths["sim"].read_bytes() == paths["aio"].read_bytes()
    # The main artifacts differ (wall-clock timing fields), which is exactly
    # why the parity file exists.
    assert (tmp_path / "sim" / "fig14.json").exists()
    assert (tmp_path / "aio" / "fig14.json").exists()


def test_secure_transport_parity_with_simulator(monkeypatch):
    """Every frame rides an AEAD message; the delivered bytes do not change."""
    monkeypatch.setenv("REPRO_AIO_TRANSPORT", "secure")
    results = {
        backend: measure_throughput(
            "slicing", LAN_PROFILE, path_length=2, d=2, num_messages=15, seed=42,
            backend=backend,
        )
        for backend in ("sim", "aio")
    }
    assert results["sim"].parity_fields() == results["aio"].parity_fields()
    assert results["sim"].delivered_digest == results["aio"].delivered_digest != ""


def test_runner_rejects_backend_for_sim_only_experiments(tmp_path):
    with pytest.raises(ValueError, match="does not support backend"):
        run_experiment("fig16", out_dir=tmp_path, backend="aio")


# -- lifecycle ----------------------------------------------------------------------


def test_build_substrate_selects_backends():
    network = _lan_network(["a", "b"])
    sim = build_substrate("sim", network, connection_bps=30e6)
    aio = build_substrate("aio", network, connection_bps=30e6)
    try:
        assert type(sim).__name__ == "SimulatedOverlayNetwork"
        assert isinstance(aio, AioOverlayNetwork)
        with pytest.raises(KeyError, match="unknown overlay backend"):
            build_substrate("carrier-pigeon", network, connection_bps=30e6)
    finally:
        aio.close()
        sim.close()  # no-op on the simulator backend


def test_aio_rejects_size_only_transmit_surface():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    try:
        with pytest.raises(SimulationError, match="payload-carrying"):
            substrate.transmit("a", "b", 100, lambda: None)
        with pytest.raises(SimulationError, match="transmit_packets"):
            substrate.transmit_batch("a", "b", [100], lambda arrivals: None)
    finally:
        substrate.close()


def test_aio_blob_round_trip_and_teardown():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    delivered = []
    substrate.transmit_blob("a", "b", b"setup-onion", delivered.append)
    substrate.sim.run()
    assert delivered == [b"setup-onion"]
    assert substrate.stats.packets_sent == 1
    substrate.close()
    substrate.close()  # idempotent
    with pytest.raises(SimulationError, match="closed"):
        substrate.transmit_blob("a", "b", b"late", delivered.append)


def test_aio_drops_to_failed_receiver():
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    try:
        delivered = []
        substrate.fail_node("b")
        substrate.transmit_blobs(
            "a", "b", [b"one", b"two"], lambda blobs, arrivals: delivered.append(blobs)
        )
        substrate.sim.run()
        assert delivered == []
        assert substrate.stats.packets_dropped == 2
    finally:
        substrate.close()


def test_aio_pace_shapes_wall_clock_delivery():
    """With pace > 0, delivery waits ~pace x the virtual link span."""
    import time

    from repro.overlay.network import NodeResources, uniform_network

    # 50 ms of virtual one-way latency at pace=1.0 must show up as >= ~50 ms
    # of wall time — well clear of localhost socket-setup noise.
    network = uniform_network(["a", "b"], 0.05, NodeResources())
    slow = AioOverlayNetwork(network, connection_bps=30e6, pace=1.0)
    try:
        delivered = []
        slow.transmit_blob("a", "b", bytes(1500), delivered.append)
        start = time.perf_counter()
        virtual = slow.sim.run()
        slow_wall = time.perf_counter() - start
        assert delivered
        assert virtual >= 0.05
        assert slow_wall >= 0.04
    finally:
        slow.close()


# -- malformed peer input -----------------------------------------------------------


def _hello(sender: str = "a", receiver: str = "b") -> bytes:
    return encode_frame(f"{sender}\x00{receiver}".encode())


@pytest.mark.parametrize(
    "wire",
    [
        pytest.param(encode_frame(b"\xff\xfe"), id="hello-not-utf8"),
        pytest.param(_hello() + encode_frame(bytes(11)), id="short-batch-header"),
        pytest.param(
            _hello() + encode_frame(BATCH_HEADER.pack(999, 0)), id="unknown-batch-id"
        ),
        pytest.param(
            _hello() + encode_frame(BATCH_HEADER.pack(1, 2)) + encode_frame(b"x"),
            id="eof-mid-batch",
        ),
    ],
)
def test_aio_reader_rejects_malformed_peer_input_with_a_typed_error(wire):
    """A raw loopback peer's bad bytes fail the drive with PacketFormatError."""
    substrate = AioOverlayNetwork(_lan_network(["a", "b"]), connection_bps=30e6)
    try:
        # Batch 1 is in flight (submitted, never sent): only the raw peer's
        # bytes ever reach b's server.
        substrate.transmit_blobs("a", "b", [b"x", b"y"], lambda blobs, arrivals: None)
        loop = substrate._ensure_loop()

        async def raw_peer():
            server = await substrate._ensure_server("b")
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(wire)
            writer.write_eof()
            # The server closes the connection once it has rejected the input.
            await asyncio.wait_for(reader.read(), timeout=10)
            writer.close()

        loop.run_until_complete(raw_peer())
        with pytest.raises(PacketFormatError):
            substrate.sim.run()
    finally:
        substrate.close()
