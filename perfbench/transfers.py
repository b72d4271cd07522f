"""Workloads, closed-loop transfer driver and end-to-end metrics.

Every transfer goes through the library's public API only —
``prepare_scheme_transfer`` (or ``build_substrate`` plus ``build_runtime``),
``ProtocolRuntime.establish``, ``substrate.sim.run()``, ``send_messages``,
``delivered_plaintexts``, ``relay_counters``, ``network_counters`` and
``close`` — reached through module attributes at call time, so the traced
run's wrappers (:mod:`spans`) see every call.  Load is closed-loop from one
thread: the next transfer starts when the previous one has returned.

Inputs come from the workload seed alone.  Route plans, relay failures and
network models depend on ``(seed, unit)``, so every cycle of a run repeats
them and ``delivered_ratio`` is a function of the seed; message bytes also
depend on the cycle, so no cycle resends the bytes of an earlier one.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import hostspeed
from repro.experiments import throughput
from repro.overlay import profiles
from repro.overlay import runtime as runtime_api

SCHEMES = ("slicing", "onion", "onion-erasure", "sphinx")

#: (d, d') per scheme on the LAN workloads, as in fig11.
LAN_CODING = {"slicing": (2, 2), "onion": (1, 1), "onion-erasure": (2, 3), "sphinx": (1, 1)}

#: (d, d') of every wan-flows flow (onion and sphinx ignore them).
WAN_CODING = (2, 3)


@dataclass(frozen=True)
class Shape:
    """Transfer sizes; :data:`FULL` is what the benchmark measures."""

    path_lengths: tuple[int, ...] = (2, 3, 4, 5)
    messages: int = 300
    message_bytes: int = 1500
    overlay_nodes: int = 100
    flows: int = 16
    flow_messages: int = 20
    flow_message_bytes: int = 64
    flow_path_length: int = 4
    failed_relays: int = 5
    #: wan-flows rounds per scheme in one cycle (each its own topology).
    rotations: int = 16
    warmup_messages: int = 10


FULL = Shape()

#: Small enough for the benchmark's own tests; same code paths as FULL.
TINY = Shape(
    path_lengths=(2,),
    messages=4,
    overlay_nodes=30,
    flows=2,
    flow_messages=3,
    failed_relays=1,
    rotations=1,
    warmup_messages=2,
)

SHAPES = {"full": FULL, "tiny": TINY}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "lan" (fig11-shaped single flows) or "wan" (rounds of concurrent flows)
    backend: str
    transport: str | None
    #: Seconds one FULL cycle takes at the reference host speed (:mod:`hostspeed`)
    #: with this benchmark's parent program.  It only sizes a run: a run of
    #: ``--seconds`` does ``round(seconds / cycle_s)`` cycles, so the work,
    #: the sample counts and the tail percentile are the same on every host
    #: and for every version of the program.
    cycle_s: float

    def cycles_for(self, seconds: float) -> int:
        cycles = max(1, round(seconds / self.cycle_s))
        # A LAN unit's route set-up time repeats almost exactly every cycle,
        # so the samples form tight clusters of `cycles` each.  With a cycle
        # count dividing 10, the tail (10 samples above it) sits exactly on a
        # cluster boundary and jumps between clusters from run to run.
        while self.kind == "lan" and 10 % cycles == 0:
            cycles += 1
        return cycles

    @property
    def link(self) -> str:
        if self.backend == "aio":
            return "loopback TCP inside this process (127.0.0.1); no real link crossed"
        return "none: discrete-event simulator in this process; no real link crossed"


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("lan-bulk", "lan", "sim", None, cycle_s=2.7),
        Workload("wan-flows", "wan", "sim", None, cycle_s=18.8),
        Workload("aio-plain", "lan", "aio", "plain", cycle_s=3.2),
        Workload("aio-secure", "lan", "aio", "secure", cycle_s=7.9),
    )
}


@dataclass
class UnitResult:
    """One LAN transfer, or one wan-flows round of concurrent flows."""

    scheme: str
    rotation: int
    transfers: int
    sent: int
    seconds: float = 0.0
    setup_ms: float | None = None
    delivered: int = 0
    bits: int = 0
    errors: int = 0
    digest: str = ""
    relay: dict = field(default_factory=dict)
    net: dict = field(default_factory=dict)
    events: int = 0
    #: Reference-speed seconds per wall second (:mod:`hostspeed`); 1.0 uncalibrated.
    scale: float = 1.0


@dataclass
class RunResult:
    workload: Workload
    cycles: int
    wall_s: float
    units: list[UnitResult]

    @property
    def attempted(self) -> int:
        return sum(unit.transfers for unit in self.units)

    @property
    def failed(self) -> int:
        return sum(unit.errors for unit in self.units)

    @property
    def delivered_ratio(self) -> float:
        return sum(unit.delivered for unit in self.units) / sum(unit.sent for unit in self.units)

    @property
    def correct(self) -> bool:
        """No wrong plaintext, no exception, and nothing lost on a LAN."""
        if self.failed:
            return False
        return self.workload.kind != "lan" or self.delivered_ratio == 1.0

    def digest(self) -> str:
        """Digest of everything delivered, in schedule order."""
        digest = hashlib.sha256()
        for unit in self.units:
            digest.update(f"{unit.scheme}:{unit.delivered}:{unit.digest}".encode())
        return digest.hexdigest()

    def totals(self) -> dict[str, int]:
        """Relay counters, transport counters and simulator events, summed."""
        totals: dict[str, int] = {"events": 0}
        for unit in self.units:
            totals["events"] += unit.events
            for counters in (unit.relay, unit.net):
                for key, value in counters.items():
                    totals[key] = totals.get(key, 0) + value
        return totals


def unit_seed(*keys: int) -> int:
    """A 32-bit seed derived from the workload seed and a unit's coordinates."""
    return int(np.random.SeedSequence(list(keys)).generate_state(1)[0])


def random_messages(seed: int, count: int, size: int) -> list[bytes]:
    rng = np.random.default_rng(seed)
    return [rng.bytes(size) for _ in range(count)]


def verify(sent: list[bytes], delivered: dict[int, bytes]) -> tuple[int, bool]:
    """(messages delivered intact, whether any plaintext was wrong)."""
    intact = 0
    wrong = False
    for seq, plaintext in delivered.items():
        if 0 <= seq < len(sent) and plaintext == sent[seq]:
            intact += 1
        else:
            wrong = True
    return intact, wrong


def _delivered_digest(delivered: dict[int, bytes]) -> str:
    digest = hashlib.sha256()
    for seq in sorted(delivered):
        digest.update(seq.to_bytes(8, "big"))
        digest.update(delivered[seq])
    return digest.hexdigest()


def _aio_substrate(transport: str, network):
    return runtime_api.build_substrate(
        "aio",
        network,
        connection_bps=throughput.connection_bps_for(profiles.LAN_PROFILE),
        transport=transport,
    )


def lan_transfer(
    workload: Workload, scheme: str, path_length: int, plan_seed: int, messages: list[bytes]
) -> tuple[float, float, dict[int, bytes], dict, dict, int]:
    """One fig11-shaped transfer; returns (seconds, setup ms, delivered, counters...)."""
    d, d_prime = LAN_CODING[scheme]
    factory = None
    if workload.backend == "aio":
        factory = functools.partial(_aio_substrate, workload.transport)
    start = perf_counter()
    substrate, runtime, relays, destination = throughput.prepare_scheme_transfer(
        scheme,
        profiles.LAN_PROFILE,
        path_length,
        d,
        d_prime,
        plan_seed,
        "batched",
        substrate_factory=factory,
    )
    try:
        setup_start = perf_counter()
        runtime.establish(relays, destination)
        substrate.sim.run()
        setup_ms = (perf_counter() - setup_start) * 1e3
        runtime.send_messages(messages)
        substrate.sim.run()
        delivered = runtime.delivered_plaintexts()
        relay = runtime.relay_counters()
        net = runtime.network_counters()
        events = substrate.sim.events_processed
    finally:
        substrate.close()
    return perf_counter() - start, setup_ms, delivered, relay, net, events


def _wan_runtime_kwargs(scheme: str, stage: list[str], path_length: int, rng) -> dict:
    d, d_prime = WAN_CODING
    if scheme == "slicing":
        return {"source_stage": stage, "d": d, "d_prime": d_prime,
                "path_length": path_length, "rng": rng}
    kwargs = {"source_address": stage[0], "path_length": path_length, "rng": rng}
    if scheme == "onion-erasure":
        kwargs.update(d=d, d_prime=d_prime)
    return kwargs


def wan_round(
    scheme: str, plan_seed: int, payloads: list[list[bytes]], shape: Shape
) -> tuple[float, float, list[dict[int, bytes]], dict, dict, int]:
    """One round: ``shape.flows`` concurrent flows of one scheme on a shared overlay.

    All flows establish, the simulator drains, then ``shape.failed_relays``
    overlay relays fail and every flow sends its burst.
    """
    rng = np.random.default_rng(plan_seed)
    nodes = [f"pl-{index}" for index in range(shape.overlay_nodes)]
    stages = [
        [f"flow{flow}-src{index}" for index in range(WAN_CODING[1])]
        for flow in range(shape.flows)
    ]
    destinations = [f"flow{flow}-dst" for flow in range(shape.flows)]
    failed = [nodes[index] for index in rng.choice(len(nodes), shape.failed_relays, replace=False)]
    addresses = nodes + [address for stage in stages for address in stage] + destinations
    start = perf_counter()
    network = profiles.PLANETLAB_PROFILE.build_network(addresses, rng)
    substrate = runtime_api.build_substrate(
        "sim", network, connection_bps=throughput.connection_bps_for(profiles.PLANETLAB_PROFILE)
    )
    try:
        runtimes = [
            runtime_api.build_runtime(
                scheme,
                substrate,
                **_wan_runtime_kwargs(
                    scheme, stages[flow], shape.flow_path_length,
                    np.random.default_rng([plan_seed, flow]),
                ),
            )
            for flow in range(shape.flows)
        ]
        setup_start = perf_counter()
        for runtime, destination in zip(runtimes, destinations):
            runtime.establish(nodes, destination)
        substrate.sim.run()
        setup_ms = (perf_counter() - setup_start) * 1e3
        for address in failed:
            substrate.fail_node(address)
        for runtime, messages in zip(runtimes, payloads):
            runtime.send_messages(messages)
        substrate.sim.run()
        delivered = [runtime.delivered_plaintexts() for runtime in runtimes]
        relay: dict[str, int] = {}
        for runtime in runtimes:
            for key, value in runtime.relay_counters().items():
                relay[key] = relay.get(key, 0) + value
        net = runtimes[0].network_counters()
        events = substrate.sim.events_processed
    finally:
        substrate.close()
    return perf_counter() - start, setup_ms, delivered, relay, net, events


def cycle_plan(workload: Workload, shape: Shape) -> list[tuple[str, int]]:
    """The (scheme, path length) units of one cycle, schemes interleaved.

    Interleaving spreads host drift over every scheme alike.
    """
    if workload.kind == "lan":
        return [(scheme, length) for length in shape.path_lengths for scheme in SCHEMES]
    return [(scheme, shape.flow_path_length) for _ in range(shape.rotations) for scheme in SCHEMES]


def run_unit(
    workload: Workload, seed: int, cycle: int, index: int, shape: Shape
) -> UnitResult:
    """Run and verify one unit; an exception counts every flow in it as failed."""
    units = cycle_plan(workload, shape)
    scheme, path_length = units[index]
    plan_seed = unit_seed(seed, index)
    if workload.kind == "lan":
        rotation = cycle
        sent = [random_messages(unit_seed(seed, index, cycle + 1), shape.messages, shape.message_bytes)]
    else:
        rotation = cycle * shape.rotations + index // len(SCHEMES)
        sent = [
            random_messages(
                unit_seed(seed, index, cycle + 1, flow), shape.flow_messages, shape.flow_message_bytes
            )
            for flow in range(shape.flows)
        ]
    unit = UnitResult(scheme, rotation, transfers=len(sent), sent=sum(map(len, sent)))
    try:
        if workload.kind == "lan":
            seconds, setup_ms, delivered, relay, net, events = lan_transfer(
                workload, scheme, path_length, plan_seed, sent[0]
            )
            delivered = [delivered]
        else:
            seconds, setup_ms, delivered, relay, net, events = wan_round(
                scheme, plan_seed, sent, shape
            )
    except Exception:  # a failing transfer is counted, and fails the run
        traceback.print_exc(file=sys.stderr)
        unit.errors = unit.transfers
        return unit
    digest = hashlib.sha256()
    for messages, got in zip(sent, delivered):
        intact, wrong = verify(messages, got)
        unit.delivered += intact
        unit.bits += 8 * sum(len(messages[seq]) for seq in got if not wrong)
        unit.errors += wrong
        digest.update(_delivered_digest(got).encode())
    unit.seconds, unit.setup_ms = seconds, setup_ms
    unit.digest = digest.hexdigest()
    unit.relay, unit.net, unit.events = relay, net, events
    return unit


def run_workload(
    workload: Workload,
    seed: int,
    shape: Shape,
    cycles: int,
    on_transfer=None,
    calibrate: bool = True,
) -> RunResult:
    """Run ``cycles`` whole cycles of the workload, closed-loop.

    Whole cycles keep every scheme and every path length equally
    represented.  ``on_transfer(i)`` is called before the i-th unit (the
    traced run tags its spans with it).  With ``calibrate`` the host-speed
    kernel is timed before every unit; the traced run turns it off, since
    its ledger needs no reference speed.
    """
    plan = cycle_plan(workload, shape)
    units: list[UnitResult] = []
    start = perf_counter()
    for cycle in range(cycles):
        for index in range(len(plan)):
            if on_transfer is not None:
                on_transfer(cycle * len(plan) + index)
            kernel_s = hostspeed.sample() if calibrate else None
            unit = run_unit(workload, seed, cycle, index, shape)
            if kernel_s is not None:
                unit.scale = hostspeed.REFERENCE_S / kernel_s
            units.append(unit)
    return RunResult(workload, cycles, perf_counter() - start, units)


def warm_up(workload: Workload, seed: int, shape: Shape) -> RunResult:
    """One short cycle of every scheme, so lazy set-up is paid before timing."""
    small = dataclasses.replace(
        shape,
        path_lengths=shape.path_lengths[:1],
        messages=shape.warmup_messages,
        flows=min(shape.flows, 2),
        flow_messages=min(shape.flow_messages, shape.warmup_messages),
        rotations=1,
    )
    return run_workload(workload, seed, small, cycles=1)


# -- end-to-end metrics ---------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with >= 10 samples above it.

    With ten samples or fewer no such statistic exists; the maximum is
    returned, at the 100th percentile.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def end_to_end(run: RunResult) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, note) for every end-to-end metric but setup_s.

    Timings are at the reference host speed (:mod:`hostspeed`); each note
    also gives the plain wall-clock figure.
    """
    metrics = []
    for scheme in SCHEMES:
        groups: dict[int, list[UnitResult]] = {}
        for unit in run.units:
            if unit.scheme == scheme:
                groups.setdefault(unit.rotation, []).append(unit)
        clean = [group for group in groups.values() if not any(unit.errors for unit in group)]

        def goodput(scaled: bool, clean=clean) -> float:
            rates = [
                sum(unit.bits for unit in group)
                / sum(unit.seconds * (unit.scale if scaled else 1.0) for unit in group)
                / 1e6
                for group in clean
            ]
            return statistics.median(rates) if rates else 0.0

        metrics.append((f"{scheme}.goodput_mbps", goodput(True), "Mbps",
                        f"median of {len(clean)} rotations; wall-clock {goodput(False):.4g}"))
    timed = [unit for unit in run.units if unit.setup_ms is not None]
    setups = [unit.setup_ms * unit.scale for unit in timed]
    walls = [unit.setup_ms for unit in timed]
    if timed:
        (tail_value, level), (tail_wall, _) = tail(setups), tail(walls)
        p50, p50_wall = statistics.median(setups), statistics.median(walls)
    else:
        tail_value = level = tail_wall = p50 = p50_wall = 0.0
    metrics.append(("route_setup_ms.p50", p50, "ms",
                    f"n={len(setups)}; wall-clock {p50_wall:.4g}"))
    metrics.append(("route_setup_ms.tail", tail_value, "ms",
                    f"p{level:.1f}, n={len(setups)}; wall-clock {tail_wall:.4g}"))
    metrics.append(("delivered_ratio", run.delivered_ratio, "ratio",
                    f"{sum(u.delivered for u in run.units)}/{sum(u.sent for u in run.units)} messages"))
    metrics.append(("error_ratio", run.failed / run.attempted, "ratio",
                    f"{run.failed}/{run.attempted} transfers"))
    metrics.append(("peak_rss_mb", peak_rss_mb(), "MB", "whole process"))
    speeds = [unit.scale for unit in run.units]
    metrics.append(("host_speed", statistics.median(speeds), "ratio",
                    f"host speed over the reference speed, median of {len(speeds)} kernel samples"))
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
