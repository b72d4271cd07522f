"""Span recorder and per-layer wrappers for the traced benchmark run.

Tracing lives entirely in the benchmark: :func:`traced` replaces each
layer's public functions (the table in :data:`LAYERS`) with thin wrappers
that record a span per call, and puts every original back on exit, so an
untraced run executes the program's own code objects and nothing else.

A span is ``(name, start, end, parent, transfer)``.  Spans are kept in
compact in-memory arrays and written out once, at the end
(:meth:`SpanRecorder.save`).  A layer's self time is the sum over its spans
of the span's duration minus the durations of its direct children, so the
self times of all layers plus the time outside every span add up to the
traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

#: Layer name -> the public callables wrapped for it, as ``module:qualname``.
#: Module-level functions are patched at every by-name import site under
#: ``repro`` (``from .integrity import robust_decode`` binds a second name
#: that a patch of the defining module alone would miss).
LAYERS: dict[str, tuple[str, ...]] = {
    "crypto.symmetric": ("repro.crypto.symmetric:StreamCipher.keystream",),
    "crypto.public_key": (
        "repro.crypto.public_key:SimulatedKeyPair.encrypt",
        "repro.crypto.public_key:SimulatedKeyPair.decrypt",
    ),
    "core.gf": (
        "repro.core.gf:GF256.matmul",
        "repro.core.gf:GF256.batched_matmul",
        "repro.core.gf:GF256.try_invert_matrices",
        "repro.core.gf:GF256.multiply",
        "repro.core.gf:GF256.rank",
    ),
    "core.coder": (
        "repro.core.coder:SliceCoder.encode_batch",
        "repro.core.coder:SliceCoder.decode_batch",
        "repro.core.coder:SliceCoder.generate_matrices",
        "repro.core.coder:SliceCoder.recombine",
        "repro.core.coder:SliceCoder.regenerate",
    ),
    "core.integrity": (
        "repro.core.integrity:wrap",
        "repro.core.integrity:unwrap",
        "repro.core.integrity:robust_decode",
    ),
    "core.flow_decoder": (
        "repro.core.flow_decoder:FlowDecoder.add_run",
        "repro.core.flow_decoder:FlowDecoder.decode_many",
        "repro.core.flow_decoder:decode_setup_payload",
    ),
    "core.source": (
        "repro.core.source:Source.establish_flow",
        "repro.core.source:Source.make_data_packets_batch",
    ),
    "core.relay": (
        "repro.core.relay:Relay.handle_packets",
        "repro.core.relay:Relay.flush_setup",
        "repro.core.relay:Relay.flush_data_many",
    ),
    "core.packet": (
        "repro.core.packet:Packet.to_bytes",
        "repro.core.packet:Packet.from_bytes",
    ),
    "overlay.simulator": ("repro.overlay.simulator:EventSimulator.run",),
    "overlay.node": (
        "repro.overlay.node:SimulatedOverlayNetwork.transmit_packets",
        "repro.overlay.node:SimulatedOverlayNetwork.transmit_blobs",
        "repro.overlay.node:SimulatedOverlayNetwork.transmit_blob",
        "repro.overlay.aio:AioOverlayNetwork.transmit_packets",
        "repro.overlay.aio:AioOverlayNetwork.transmit_blobs",
        "repro.overlay.aio:AioOverlayNetwork.transmit_blob",
        "repro.overlay.node:OverlayTransport.reserve_cpu_sequence",
    ),
    # Filled in by :func:`layer_targets` from the runtime registry, so a
    # newly registered scheme is traced without editing this table.
    "overlay.runtime": (),
    # drive() runs the event loop: its self time is loop, socket and wait
    # time.  close() tears the loop and the connections down.
    "overlay.aio": (
        "repro.overlay.aio:AioOverlayNetwork.drive",
        "repro.overlay.aio:AioOverlayNetwork.close",
        "repro.overlay.aio:pack_batch",
        "repro.overlay.aio:read_frame",
    ),
    "net.secure": (
        "repro.net.secure:SecureSession.encrypt_frame",
        "repro.net.secure:SecureSession.decrypt_length",
        "repro.net.secure:SecureSession.decrypt_body",
        "repro.net.secure:SecureSession.decrypt_frame",
        "repro.net.secure:HandshakeState.write_act_one",
        "repro.net.secure:HandshakeState.read_act_one",
        "repro.net.secure:HandshakeState.write_act_two",
        "repro.net.secure:HandshakeState.read_act_two",
        "repro.net.secure:HandshakeState.write_act_three",
        "repro.net.secure:HandshakeState.read_act_three",
        "repro.net.secure:StaticKeyPair.ecdh",
    ),
    # Directory construction is the baselines' key set-up, paid in establish().
    "baselines.onion": (
        "repro.baselines.onion:OnionDirectory.for_relays",
        "repro.baselines.onion:OnionSource.build_circuit",
        "repro.baselines.onion:OnionSource.wrap_data",
        "repro.baselines.onion:OnionRelay.handle_setup",
        "repro.baselines.onion:OnionRelay.handle_data",
    ),
    "baselines.sphinx": (
        "repro.baselines.sphinx:SphinxDirectory.for_relays",
        "repro.baselines.sphinx:SphinxSource.build_circuit",
        "repro.baselines.sphinx:SphinxSource.wrap_cells",
        "repro.baselines.sphinx:SphinxRelay.handle_setup",
        "repro.baselines.sphinx:SphinxRelay.strip_cells",
    ),
    # The per-transfer build: network model, substrate and runtimes.
    "experiments.throughput": (
        "repro.experiments.throughput:prepare_scheme_transfer",
        "repro.overlay.profiles:OverlayProfile.build_network",
        "repro.overlay.runtime:build_substrate",
        "repro.overlay.runtime:build_runtime",
    ),
}

#: Counters the wrappers accumulate from call results:
#: target -> (counter name, function of the result -> amount).
COUNTED: dict[str, tuple[str, Callable]] = {
    "repro.crypto.symmetric:StreamCipher.keystream": (
        "crypto.symmetric.bytes",
        len,
    ),
    "repro.core.flow_decoder:FlowDecoder.decode_many": (
        "core.flow_decoder.decoded",
        len,
    ),
    "repro.overlay.aio:read_frame": (
        "overlay.aio.frames",
        lambda frame: frame is not None,
    ),
    "repro.net.secure:SecureSession.encrypt_frame": (
        "net.secure.frames",
        lambda result: 1,
    ),
    "repro.net.secure:HandshakeState.read_act_three": (
        "net.secure.handshakes",
        lambda result: 1,
    ),
}

#: Per-layer counts beyond self_s/calls/share: (metric suffix, unit).
LAYER_COUNTS = {
    "crypto.symmetric": (("bytes", "B"),),
    "core.integrity": (("robust_decode_calls", "count"),),
    "core.flow_decoder": (("fallback_ratio", "ratio"),),
    "core.relay": (("packets_received", "count"), ("regenerated_slices", "count")),
    "overlay.simulator": (("events", "count"),),
    "overlay.node": (
        ("packets_sent", "count"),
        ("packets_dropped", "count"),
        ("bytes_sent", "B"),
    ),
    "overlay.aio": (("frames", "count"),),
    "net.secure": (("frames", "count"), ("handshakes", "count")),
}

ROBUST_DECODE = "repro.core.integrity:robust_decode"
DECODE_MANY = "repro.core.flow_decoder:FlowDecoder.decode_many"


def layer_targets() -> dict[str, tuple[str, ...]]:
    """:data:`LAYERS` with ``overlay.runtime`` filled from the runtime registry."""
    from repro.overlay import runtime

    targets = dict(LAYERS)
    runtime_targets = []
    for scheme in runtime.runtime_schemes():
        cls = runtime.RUNTIME_SCHEMES[scheme]
        for method in ("establish", "send_messages"):
            if method in vars(cls):
                runtime_targets.append(f"{cls.__module__}:{cls.__qualname__}.{method}")
    targets["overlay.runtime"] = tuple(runtime_targets)
    return targets


class SpanRecorder:
    """Spans of one traced run, in compact arrays until :meth:`save`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.counters: dict[str, float] = {}
        self.transfer = 0
        self._name = array("i")
        self._parent = array("i")
        self._transfer = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]

    def register(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        self.calls.append(0)
        return len(self.names) - 1

    def open(self, name_id: int) -> int:
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._transfer.append(self.transfer)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    def count(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def __len__(self) -> int:
        return len(self._start)

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies: a view would pin the arrays, and the next open() would fail.
        return {
            "name": np.array(self._name, dtype=np.int32),
            "parent": np.array(self._parent, dtype=np.int32),
            "transfer": np.array(self._transfer, dtype=np.int32),
            "start": np.array(self._start, dtype=np.float64),
            "end": np.array(self._end, dtype=np.float64),
        }

    def self_times(self) -> np.ndarray:
        """Per-span self time: duration minus the durations of direct children."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        parent = spans["parent"]
        nested = parent >= 0
        children = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        return duration - children

    def save(self, path: Path, provenance: dict) -> None:
        """Write every span (and the name table) out in one compressed file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            provenance=np.array(json.dumps(provenance, sort_keys=True)),
            **self.arrays(),
        )


@dataclass
class LayerLedger:
    """Per-layer self time and calls of a traced run, plus derived counts."""

    self_s: dict[str, float]
    calls: dict[str, int]
    counters: dict[str, float]
    robust_decode_calls: int
    robust_decode_fallbacks: int


def ledger(recorder: SpanRecorder) -> LayerLedger:
    """Fold the recorded spans into per-layer self times and call counts."""
    spans = recorder.arrays()
    per_name = np.bincount(
        spans["name"], weights=recorder.self_times(), minlength=len(recorder.names)
    )
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for name_id, layer in enumerate(recorder.layer_of):
        self_s[layer] += float(per_name[name_id])
        calls[layer] += recorder.calls[name_id]
    robust = recorder.names.index(ROBUST_DECODE)
    decode_many = recorder.names.index(DECODE_MANY)
    is_robust = spans["name"] == robust
    # A robust_decode directly under decode_many is a data message that left
    # the first-d fast path of the batched flow decoder.
    parents = spans["parent"][is_robust]
    fallbacks = int(np.count_nonzero(spans["name"][parents[parents >= 0]] == decode_many))
    return LayerLedger(
        self_s=self_s,
        calls=calls,
        counters=dict(recorder.counters),
        robust_decode_calls=recorder.calls[robust],
        robust_decode_fallbacks=fallbacks,
    )


def layer_metrics(ledger: LayerLedger, traced_run, untraced_run) -> list[tuple]:
    """(name, value, unit, note) of every per-layer metric of a traced run."""
    wall = traced_run.wall_s
    totals = traced_run.totals()
    counts = {
        "crypto.symmetric.bytes": ledger.counters.get("crypto.symmetric.bytes", 0),
        "core.integrity.robust_decode_calls": ledger.robust_decode_calls,
        "core.flow_decoder.fallback_ratio": ledger.robust_decode_fallbacks
        / max(ledger.counters.get("core.flow_decoder.decoded", 0), 1),
        "core.relay.packets_received": totals.get("packets_received", 0),
        "core.relay.regenerated_slices": totals.get("regenerated_slices", 0),
        "overlay.simulator.events": totals["events"],
        "overlay.node.packets_sent": totals["packets_sent"],
        "overlay.node.packets_dropped": totals["packets_dropped"],
        "overlay.node.bytes_sent": totals["bytes_sent"],
        "overlay.aio.frames": ledger.counters.get("overlay.aio.frames", 0),
        "net.secure.frames": ledger.counters.get("net.secure.frames", 0),
        "net.secure.handshakes": ledger.counters.get("net.secure.handshakes", 0),
    }
    metrics = []
    for layer in LAYERS:
        self_s = ledger.self_s[layer]
        metrics.append((f"{layer}.self_s", self_s, "s", ""))
        metrics.append((f"{layer}.calls", ledger.calls[layer], "count", ""))
        metrics.append((f"{layer}.share", self_s / wall, "ratio", "self time over traced wall"))
        for suffix, unit in LAYER_COUNTS.get(layer, ()):
            metrics.append((f"{layer}.{suffix}", counts[f"{layer}.{suffix}"], unit, ""))
    accounted = sum(ledger.self_s.values())
    metrics.append(("unaccounted_share", (wall - accounted) / wall, "ratio",
                    f"traced wall {wall:.3f} s"))
    metrics.append(("trace.overhead", wall / untraced_run.wall_s - 1.0, "ratio",
                    f"untraced wall {untraced_run.wall_s:.3f} s, {traced_run.cycles} cycles"))
    return metrics


# -- wrappers -----------------------------------------------------------------------


def _sync_wrapper(func, name_id: int, recorder: SpanRecorder, counted):
    open_span, close_span, calls = recorder.open, recorder.close, recorder.calls
    if counted is None:

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[name_id] += 1
            index = open_span(name_id)
            try:
                return func(*args, **kwargs)
            finally:
                close_span(index)

        return wrapper
    counter, amount = counted

    @functools.wraps(func)
    def counting_wrapper(*args, **kwargs):
        calls[name_id] += 1
        index = open_span(name_id)
        try:
            result = func(*args, **kwargs)
        finally:
            close_span(index)
        recorder.count(counter, amount(result))
        return result

    return counting_wrapper


class _TimedAwaitable:
    """Drives a coroutine, recording one span per synchronous resumption.

    The time a coroutine spends suspended belongs to whatever else the event
    loop runs meanwhile, so only the slices between resumption and the next
    suspension are the coroutine's own; each slice nests under the span that
    was open when the loop resumed it (``AioOverlayNetwork.drive``).
    """

    def __init__(self, coro, name_id: int, recorder: SpanRecorder, counted) -> None:
        self.coro = coro
        self.name_id = name_id
        self.recorder = recorder
        self.counted = counted

    def __await__(self):
        coro, recorder = self.coro, self.recorder
        value, error = None, None
        while True:
            index = recorder.open(self.name_id)
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                recorder.close(index)
                if self.counted is not None:
                    counter, amount = self.counted
                    recorder.count(counter, amount(stop.value))
                return stop.value
            except BaseException:
                recorder.close(index)
                raise
            recorder.close(index)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # noqa: B036 - forwarded into the coroutine
                value, error = None, exc


def _async_wrapper(func, name_id: int, recorder: SpanRecorder, counted):
    calls = recorder.calls

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        calls[name_id] += 1
        return _TimedAwaitable(func(*args, **kwargs), name_id, recorder, counted)

    return wrapper


def _wrap(func, name_id, recorder, counted):
    if inspect.iscoroutinefunction(func):
        return _async_wrapper(func, name_id, recorder, counted)
    return _sync_wrapper(func, name_id, recorder, counted)


def _resolve(target: str):
    """``module:qualname`` -> (owner object, attribute name, module)."""
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, module


def _patch_sites(owner, attribute: str, module) -> list[tuple[object, str]]:
    """Every place a call can find ``owner.attribute`` by name."""
    if owner is not module:
        return [(owner, attribute)]
    func = getattr(module, attribute)
    return [
        (loaded, attribute)
        for name, loaded in sorted(sys.modules.items())
        if name.partition(".")[0] == "repro" and getattr(loaded, attribute, None) is func
    ]


def all_patch_sites() -> list[tuple[object, str]]:
    """Every (owner, attribute) :func:`traced` replaces (for restore checks)."""
    sites = []
    for targets in layer_targets().values():
        for target in targets:
            sites.extend(_patch_sites(*_resolve(target)))
    return sites


@contextlib.contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer's public calls for the duration of the block.

    Every replaced attribute is restored in ``finally``, whatever the block
    raises, so the next untraced run sees the original objects.
    """
    originals: list[tuple[object, str, object]] = []
    try:
        for layer, targets in layer_targets().items():
            for target in targets:
                owner, attribute, module = _resolve(target)
                raw = getattr(module, attribute) if owner is module else vars(owner)[attribute]
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                func = raw.__func__ if kind is not None else raw
                name_id = recorder.register(target, layer)
                wrapper = _wrap(func, name_id, recorder, COUNTED.get(target))
                replacement = kind(wrapper) if kind is not None else wrapper
                for site, name in _patch_sites(owner, attribute, module):
                    originals.append((site, name, vars(site)[name]))
                    setattr(site, name, replacement)
        yield recorder
    finally:
        for site, name, original in reversed(originals):
            setattr(site, name, original)
