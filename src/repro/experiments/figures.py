"""Per-figure experiment definitions, registered with the experiment runner.

Every figure of the paper's evaluation is declared as a named
:class:`~repro.experiments.registry.Experiment`: a trial builder that expands
``scale`` into independent trial dictionaries, a module-level ``run_trial``
function (module-level so worker processes can pickle references to it), and
a reduction that folds per-trial results into the row dictionaries the paper
plots.  Monte-Carlo figures additionally split each parameter point into
bounded chunks so the runner can spread one expensive point across workers.

Callers name an experiment through the registry: ``experiment_rows("fig07",
scale)`` returns its rows inline, ``run_experiment`` also writes the
artifact, and ``scale`` = 1.0 reproduces the paper's trial counts.
"""

from __future__ import annotations

import time

import numpy as np

from ..anonymity.simulation import (
    simulate_anonymity,
    simulate_anonymity_batch,
    simulate_anonymity_trials,
)
from ..baselines.chaum import (
    simulate_chaum_anonymity,
    simulate_chaum_anonymity_batch,
    simulate_chaum_trials,
)
from ..core.coder import SliceCoder
from ..overlay.churn import PLANETLAB_CHURN
from ..overlay.profiles import LAN_PROFILE, PLANETLAB_PROFILE
from ..resilience.analysis import (
    onion_erasure_success_probability,
    slicing_success_probability,
)
from ..resilience.transfer import simulate_transfers
from .registry import Experiment, register
from .setup_latency import measure_onion_setup, measure_setup, measure_slicing_setup
from .throughput import (
    aggregate_throughput_vs_flows,
    measure_onion_throughput,
    measure_slicing_throughput,
    measure_throughput,
)
from .trials import chunked_points, merge_chunks, spawn_seed

#: Default parameters straight from the paper's captions.
DEFAULT_N = 10_000
DEFAULT_TRIALS = 1000

_PROFILES = {"lan": LAN_PROFILE, "planetlab": PLANETLAB_PROFILE}

#: Runtime schemes the overlay figures (11-15) accept via ``--scheme``: any
#: single registered protocol runtime can be driven through the unified
#: measurement drivers on either backend.
OVERLAY_SCHEMES = ("slicing", "onion", "onion-erasure", "sphinx")


def _trials(scale: float) -> int:
    return max(int(DEFAULT_TRIALS * scale), 20)


# -- Fig. 7: anonymity vs. fraction of malicious nodes ---------------------------

_FIG07_FRACTIONS = [0.001, 0.005, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9]
_FIG07_FIELDS = (
    "source_anonymity",
    "destination_anonymity",
    "chaum_source_anonymity",
    "chaum_destination_anonymity",
)


def _fig07_trials(scale: float) -> list[dict]:
    points = [{"fraction_malicious": f} for f in _FIG07_FRACTIONS]
    return chunked_points(points, _trials(scale))


def _fig07_run(params: dict, rng: np.random.Generator) -> dict:
    fraction = params["fraction_malicious"]
    trials = params["trials"]
    slicing = simulate_anonymity_batch(
        DEFAULT_N, path_length=8, d=3, fraction_malicious=fraction, trials=trials, rng=rng
    )
    chaum = simulate_chaum_anonymity_batch(
        DEFAULT_N, path_length=8, fraction_malicious=fraction, trials=trials, rng=rng
    )
    return {
        "fraction_malicious": fraction,
        "trials": trials,
        "source_anonymity": slicing.source_anonymity,
        "destination_anonymity": slicing.destination_anonymity,
        "chaum_source_anonymity": chaum.source_anonymity,
        "chaum_destination_anonymity": chaum.destination_anonymity,
    }


def _fig07_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    return merge_chunks(results, ("fraction_malicious",), _FIG07_FIELDS)


register(
    Experiment(
        name="fig07",
        title="Fig. 7: anonymity vs. fraction of malicious nodes (N=10000, L=8, d=3)",
        build_trials=_fig07_trials,
        run_trial=_fig07_run,
        reduce=_fig07_reduce,
    )
)


# -- Fig. 8: anonymity vs. split factor ------------------------------------------

_FIG08_SPLIT_FACTORS = [2, 3, 4, 6, 8, 10, 12]


def _fig08_trials(scale: float) -> list[dict]:
    points = [
        {"split_factor": d, "fraction_malicious": f}
        for d in _FIG08_SPLIT_FACTORS
        for f in (0.1, 0.4)
    ]
    return chunked_points(points, _trials(scale))


def _fig08_run(params: dict, rng: np.random.Generator) -> dict:
    result = simulate_anonymity_batch(
        DEFAULT_N,
        path_length=8,
        d=params["split_factor"],
        fraction_malicious=params["fraction_malicious"],
        trials=params["trials"],
        rng=rng,
    )
    return {
        "split_factor": params["split_factor"],
        "fraction_malicious": params["fraction_malicious"],
        "trials": params["trials"],
        "source_anonymity": result.source_anonymity,
        "destination_anonymity": result.destination_anonymity,
    }


def _fig08_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    merged = merge_chunks(
        results,
        ("split_factor", "fraction_malicious"),
        ("source_anonymity", "destination_anonymity"),
    )
    rows: dict[int, dict] = {}
    for entry in merged:
        row = rows.setdefault(entry["split_factor"], {"split_factor": entry["split_factor"]})
        suffix = f"f{entry['fraction_malicious']:g}"
        row[f"source_anonymity_{suffix}"] = entry["source_anonymity"]
        row[f"destination_anonymity_{suffix}"] = entry["destination_anonymity"]
    return [rows[d] for d in sorted(rows)]


register(
    Experiment(
        name="fig08",
        title="Fig. 8: anonymity vs. split factor d (N=10000, L=8, f in {0.1, 0.4})",
        build_trials=_fig08_trials,
        run_trial=_fig08_run,
        reduce=_fig08_reduce,
    )
)


# -- Fig. 9: anonymity vs. path length -------------------------------------------

_FIG09_LENGTHS = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20]


def _fig09_trials(scale: float) -> list[dict]:
    points = [{"path_length": length} for length in _FIG09_LENGTHS]
    return chunked_points(points, _trials(scale))


def _fig09_run(params: dict, rng: np.random.Generator) -> dict:
    result = simulate_anonymity_batch(
        DEFAULT_N,
        path_length=params["path_length"],
        d=3,
        fraction_malicious=0.1,
        trials=params["trials"],
        rng=rng,
    )
    return {
        "path_length": params["path_length"],
        "trials": params["trials"],
        "source_anonymity": result.source_anonymity,
        "destination_anonymity": result.destination_anonymity,
    }


def _fig09_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    return merge_chunks(
        results, ("path_length",), ("source_anonymity", "destination_anonymity")
    )


register(
    Experiment(
        name="fig09",
        title="Fig. 9: anonymity vs. path length L (N=10000, d=3, f=0.1)",
        build_trials=_fig09_trials,
        run_trial=_fig09_run,
        reduce=_fig09_reduce,
    )
)


# -- Fig. 10: anonymity vs. added redundancy -------------------------------------

_FIG10_D = 3
_FIG10_D_PRIMES = [3, 4, 5, 6, 7, 8, 9, 10]


def _fig10_trials(scale: float) -> list[dict]:
    points = [{"d_prime": d_prime} for d_prime in _FIG10_D_PRIMES]
    return chunked_points(points, _trials(scale))


def _fig10_run(params: dict, rng: np.random.Generator) -> dict:
    d_prime = params["d_prime"]
    result = simulate_anonymity_batch(
        DEFAULT_N,
        path_length=8,
        d=_FIG10_D,
        fraction_malicious=0.1,
        trials=params["trials"],
        rng=rng,
        d_prime=d_prime,
    )
    return {
        "added_redundancy": (d_prime - _FIG10_D) / _FIG10_D,
        "trials": params["trials"],
        "source_anonymity": result.source_anonymity,
        "destination_anonymity": result.destination_anonymity,
    }


def _fig10_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    return merge_chunks(
        results, ("added_redundancy",), ("source_anonymity", "destination_anonymity")
    )


register(
    Experiment(
        name="fig10",
        title="Fig. 10: anonymity vs. added redundancy (d=3, L=8, f=0.1)",
        build_trials=_fig10_trials,
        run_trial=_fig10_run,
        reduce=_fig10_reduce,
    )
)


# -- Figs. 11 and 12: throughput vs. path length ---------------------------------


def _throughput_trials(profile: str, num_messages: int) -> list[dict]:
    return [
        {"profile": profile, "path_length": length, "d": 2, "num_messages": num_messages}
        for length in (2, 3, 4, 5)
    ]


def _fig11_trials(scale: float) -> list[dict]:
    return _throughput_trials("lan", max(int(300 * scale), 40))


def _fig12_trials(scale: float) -> list[dict]:
    return _throughput_trials("planetlab", max(int(120 * scale), 20))


def _throughput_run(params: dict, rng: np.random.Generator) -> dict:
    profile = _PROFILES[params["profile"]]
    backend = params.get("backend", "sim")
    scheme = params.get("scheme")
    if scheme is not None:
        # Single-scheme mode (--scheme): one transfer of the selected runtime
        # per path length; the parity sub-dict keys the scheme so cross-backend
        # cmp catches a scheme mix-up, not just a digest mismatch.
        result = measure_throughput(
            scheme,
            profile,
            params["path_length"],
            d=params["d"],
            num_messages=params["num_messages"],
            seed=spawn_seed(rng),
            backend=backend,
        )
        return {
            "path_length": params["path_length"],
            "scheme": scheme,
            "throughput_mbps": result.throughput_bps / 1e6,
            "messages_delivered": result.messages_delivered,
            "parity": {
                "path_length": params["path_length"],
                "scheme": scheme,
                "result": result.parity_fields(),
            },
        }
    slicing = measure_slicing_throughput(
        profile,
        params["path_length"],
        d=params["d"],
        num_messages=params["num_messages"],
        seed=spawn_seed(rng),
        backend=backend,
    )
    onion = measure_onion_throughput(
        profile,
        params["path_length"],
        num_messages=params["num_messages"],
        seed=spawn_seed(rng),
        backend=backend,
    )
    return {
        "path_length": params["path_length"],
        "slicing_mbps": slicing.throughput_bps / 1e6,
        "onion_mbps": onion.throughput_bps / 1e6,
        "slicing_delivered": slicing.messages_delivered,
        "onion_delivered": onion.messages_delivered,
        # Structural fields only — what both backends must agree on; the
        # runner mirrors this sub-dict into <name>.parity.json.
        "parity": {
            "path_length": params["path_length"],
            "slicing": slicing.parity_fields(),
            "onion": onion.parity_fields(),
        },
    }


register(
    Experiment(
        name="fig11",
        title="Fig. 11: LAN throughput vs. path length, slicing (d=2) vs. onion routing",
        build_trials=_fig11_trials,
        run_trial=_throughput_run,
        backends=("sim", "aio"),
        schemes=OVERLAY_SCHEMES,
    )
)

register(
    Experiment(
        name="fig12",
        title="Fig. 12: PlanetLab throughput vs. path length",
        build_trials=_fig12_trials,
        run_trial=_throughput_run,
        backends=("sim", "aio"),
        schemes=OVERLAY_SCHEMES,
    )
)


# -- Fig. 13: aggregate throughput vs. concurrent flows --------------------------


def _fig13_trials(scale: float) -> list[dict]:
    if scale >= 1.0:
        flow_counts = [1, 2, 4, 8, 16, 32, 64, 96, 128, 160]
    elif scale <= 0.1:
        # Smoke scale: enough points for the curve's rise, cheap enough for
        # CI determinism checks across worker counts.
        flow_counts = [1, 2, 4]
    else:
        flow_counts = [1, 2, 4, 8, 16, 24]
    num_messages = max(int(60 * scale), 10)
    return [
        {"flows": flows, "num_messages": num_messages, "overlay_size": 100,
         "path_length": 5, "d": 3}
        for flows in flow_counts
    ]


def _fig13_run(params: dict, rng: np.random.Generator) -> dict:
    rows = aggregate_throughput_vs_flows(
        PLANETLAB_PROFILE,
        flow_counts=[params["flows"]],
        overlay_size=params["overlay_size"],
        path_length=params["path_length"],
        d=params["d"],
        num_messages=params["num_messages"],
        seed=spawn_seed(rng),
        backend=params.get("backend", "sim"),
        scheme=params.get("scheme", "slicing"),
    )
    return rows[0]


register(
    Experiment(
        name="fig13",
        title="Fig. 13: aggregate throughput vs. number of concurrent flows",
        build_trials=_fig13_trials,
        run_trial=_fig13_run,
        backends=("sim", "aio"),
        schemes=OVERLAY_SCHEMES,
    )
)


# -- Figs. 14 and 15: route-setup latency ----------------------------------------


def _setup_trials(profile: str) -> list[dict]:
    return [
        {"profile": profile, "path_length": length, "split_factors": [2, 3, 4]}
        for length in (1, 2, 3, 4, 5, 6)
    ]


def _fig14_trials(scale: float) -> list[dict]:
    return _setup_trials("lan")


def _fig15_trials(scale: float) -> list[dict]:
    return _setup_trials("planetlab")


def _setup_run(params: dict, rng: np.random.Generator) -> dict:
    profile = _PROFILES[params["profile"]]
    backend = params.get("backend", "sim")
    path_length = params["path_length"]
    scheme = params.get("scheme")
    if scheme is not None:
        # Single-scheme mode (--scheme): slicing keeps its split-factor sweep;
        # the circuit schemes have no d axis and measure one establishment.
        row = {"path_length": path_length, "scheme": scheme}
        parity = {"path_length": path_length, "scheme": scheme}
        if scheme == "slicing":
            for d in params["split_factors"]:
                result = measure_slicing_setup(
                    profile, path_length, d=d, seed=spawn_seed(rng), backend=backend
                )
                row[f"slicing_d{d}_seconds"] = result.setup_seconds
                parity[f"slicing_d{d}"] = result.parity_fields()
        else:
            kwargs = {"d": 2, "d_prime": 3} if scheme == "onion-erasure" else {}
            result = measure_setup(
                scheme,
                profile,
                path_length,
                seed=spawn_seed(rng),
                backend=backend,
                **kwargs,
            )
            row["setup_seconds"] = result.setup_seconds
            parity[scheme] = result.parity_fields()
        row["parity"] = parity
        return row
    row = {"path_length": path_length}
    parity = {"path_length": path_length}
    onion = measure_onion_setup(
        profile, path_length, seed=spawn_seed(rng), backend=backend
    )
    row["onion_seconds"] = onion.setup_seconds
    parity["onion"] = onion.parity_fields()
    for d in params["split_factors"]:
        result = measure_slicing_setup(
            profile, path_length, d=d, seed=spawn_seed(rng), backend=backend
        )
        row[f"slicing_d{d}_seconds"] = result.setup_seconds
        parity[f"slicing_d{d}"] = result.parity_fields()
    row["parity"] = parity
    return row


register(
    Experiment(
        name="fig14",
        title="Fig. 14: LAN route-setup latency vs. path length and split factor",
        build_trials=_fig14_trials,
        run_trial=_setup_run,
        backends=("sim", "aio"),
        schemes=OVERLAY_SCHEMES,
    )
)

register(
    Experiment(
        name="fig15",
        title="Fig. 15: PlanetLab route-setup latency vs. path length and split factor",
        build_trials=_fig15_trials,
        run_trial=_setup_run,
        backends=("sim", "aio"),
        schemes=OVERLAY_SCHEMES,
    )
)


# -- Fig. 16: analytical resilience ----------------------------------------------

_FIG16_D = 2
_FIG16_D_PRIMES = [2, 3, 4, 5, 6, 7, 8, 10, 12]


def _fig16_trials(scale: float) -> list[dict]:
    return [
        {"node_failure_prob": p, "d_prime": d_prime, "path_length": 5, "d": _FIG16_D}
        for p in (0.1, 0.3)
        for d_prime in _FIG16_D_PRIMES
    ]


def _fig16_run(params: dict, rng: np.random.Generator) -> dict:
    p = params["node_failure_prob"]
    d = params["d"]
    d_prime = params["d_prime"]
    path_length = params["path_length"]
    return {
        "node_failure_prob": p,
        "added_redundancy": (d_prime - d) / d,
        "onion_erasure_success": onion_erasure_success_probability(
            p, path_length, d, d_prime
        ),
        "information_slicing_success": slicing_success_probability(
            p, path_length, d, d_prime
        ),
    }


register(
    Experiment(
        name="fig16",
        title="Fig. 16: analytical success probability vs. redundancy (p=0.1 and 0.3)",
        build_trials=_fig16_trials,
        run_trial=_fig16_run,
    )
)


# -- Fig. 17: churn resilience ---------------------------------------------------

_FIG17_D = 2
_FIG17_D_PRIMES = [2, 3, 4, 5, 6]
_FIG17_FIELDS = (
    "information_slicing_success",
    "onion_erasure_success",
    "standard_onion_success",
)


def _fig17_trials(scale: float) -> list[dict]:
    points = [{"d_prime": d_prime} for d_prime in _FIG17_D_PRIMES]
    return chunked_points(points, _trials(scale))


def _fig17_run(params: dict, rng: np.random.Generator) -> dict:
    result = simulate_transfers(
        PLANETLAB_CHURN,
        session_seconds=30 * 60.0,
        path_length=5,
        d=_FIG17_D,
        d_prime=params["d_prime"],
        trials=params["trials"],
        rng=rng,
    )
    return {
        "added_redundancy": result.redundancy,
        "trials": params["trials"],
        "information_slicing_success": result.information_slicing,
        "onion_erasure_success": result.onion_erasure,
        "standard_onion_success": result.standard_onion,
    }


def _fig17_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    return merge_chunks(results, ("added_redundancy",), _FIG17_FIELDS)


register(
    Experiment(
        name="fig17",
        title="Fig. 17: 30-minute transfer success vs. redundancy on a churning overlay",
        build_trials=_fig17_trials,
        run_trial=_fig17_run,
        reduce=_fig17_reduce,
    )
)


# -- §7.1 coding microbenchmark --------------------------------------------------

#: Batch size the batched-coding comparison runs on (the acceptance target:
#: ``encode_batch`` must beat a per-message loop on this many messages).
MICROBENCH_BATCH = 64


def _microbench_trials(scale: float) -> list[dict]:
    iterations = max(int(50 * scale), 10)
    return [
        {"d": d, "iterations": iterations, "batch_size": MICROBENCH_BATCH}
        for d in (2, 3, 4, 5, 6, 8)
    ]


def _microbench_run(params: dict, rng: np.random.Generator) -> dict:
    d = params["d"]
    iterations = params["iterations"]
    batch_size = params["batch_size"]
    coder = SliceCoder(d)
    packet = bytes(rng.integers(0, 256, size=1500, dtype=np.uint8).tobytes())

    start = time.perf_counter()
    for _ in range(iterations):
        blocks = coder.encode(packet, rng)
    encode_seconds = (time.perf_counter() - start) / iterations

    start = time.perf_counter()
    for _ in range(iterations):
        coder.decode(blocks)
    decode_seconds = (time.perf_counter() - start) / iterations

    # Batched-vs-loop comparison on a burst of equal-size packets.  Warm both
    # paths so neither measurement pays first-call allocation costs, and take
    # the per-rep minimum — the standard noise-robust microbenchmark
    # estimator — so scheduler hiccups don't skew either side.
    messages = [packet] * batch_size
    loop_reps = max(iterations // 8, 5)
    coder.encode(packet, rng)
    coder.encode_batch(messages, rng)
    loop_times = []
    for _ in range(loop_reps):
        start = time.perf_counter()
        for message in messages:
            coder.encode(message, rng)
        loop_times.append(time.perf_counter() - start)
    loop_seconds = min(loop_times)

    batch_times = []
    for _ in range(loop_reps):
        start = time.perf_counter()
        coder.encode_batch(messages, rng)
        batch_times.append(time.perf_counter() - start)
    batch_seconds = min(batch_times)

    return {
        "d": d,
        "encode_us_per_packet": encode_seconds * 1e6,
        "decode_us_per_packet": decode_seconds * 1e6,
        "max_output_mbps": 1500 * 8 / max(encode_seconds, 1e-12) / 1e6,
        "batch_encode_us_per_packet": batch_seconds / batch_size * 1e6,
        "batch_speedup": loop_seconds / max(batch_seconds, 1e-12),
    }


register(
    Experiment(
        name="microbench",
        title="§7.1 microbenchmark: coding cost per 1500-byte packet across d",
        build_trials=_microbench_trials,
        run_trial=_microbench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- §6.2 anonymity Monte-Carlo microbenchmark -----------------------------------

#: Trial count the batched-vs-scalar anonymity comparison runs at (the
#: acceptance target: ``simulate_anonymity_batch`` must beat the scalar
#: reference loop by >= 10x at the paper's 1000 trials per data point).
ANONBENCH_TRIALS = 1000


def _anonbench_trials(scale: float) -> list[dict]:
    reps = max(int(5 * scale), 1)
    return [
        {"fraction_malicious": f, "trials": ANONBENCH_TRIALS, "reps": reps}
        for f in (0.1, 0.4)
    ]


def _anonbench_run(params: dict, rng: np.random.Generator) -> dict:
    fraction = params["fraction_malicious"]
    trials = params["trials"]
    reps = params["reps"]
    seed = spawn_seed(rng)
    kwargs = dict(
        num_nodes=DEFAULT_N,
        path_length=8,
        d=3,
        fraction_malicious=fraction,
        trials=trials,
    )

    # Warm both engines and verify the vectorised path reproduces the scalar
    # reference bit-for-bit on this parameter point before timing anything.
    scalar_values = simulate_anonymity_trials(
        **kwargs, rng=np.random.default_rng(seed), engine="scalar"
    )
    batched_values = simulate_anonymity_trials(
        **kwargs, rng=np.random.default_rng(seed), engine="batched"
    )
    identical = bool(
        np.array_equal(scalar_values.source_anonymity, batched_values.source_anonymity)
        and np.array_equal(
            scalar_values.destination_anonymity, batched_values.destination_anonymity
        )
        and np.array_equal(scalar_values.source_case1, batched_values.source_case1)
        and np.array_equal(
            scalar_values.destination_case1, batched_values.destination_case1
        )
    )

    # Same noise-robust estimator as the coding microbenchmark: identical
    # seeds on both sides, per-rep minimum.
    scalar_times = []
    for _ in range(reps):
        start = time.perf_counter()
        simulate_anonymity(**kwargs, rng=np.random.default_rng(seed))
        scalar_times.append(time.perf_counter() - start)
    scalar_seconds = min(scalar_times)

    batched_times = []
    for _ in range(reps):
        start = time.perf_counter()
        simulate_anonymity_batch(**kwargs, rng=np.random.default_rng(seed))
        batched_times.append(time.perf_counter() - start)
    batched_seconds = min(batched_times)

    return {
        "fraction_malicious": fraction,
        "trials": trials,
        "scalar_ms": scalar_seconds * 1e3,
        "batched_ms": batched_seconds * 1e3,
        "speedup": scalar_seconds / max(batched_seconds, 1e-12),
        "identical": identical,
    }


register(
    Experiment(
        name="anonbench",
        title="§6.2 microbenchmark: batched vs. scalar anonymity Monte-Carlo at 1000 trials",
        build_trials=_anonbench_trials,
        run_trial=_anonbench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- batched data-plane microbenchmark ---------------------------------------------

#: The dataplane-bench acceptance target: the batched overlay data plane must
#: beat the per-packet reference by at least this factor at 64 messages.
DATAPLANE_TARGET_SPEEDUP = 5.0


#: Seeds the dataplane-bench compares the planes on; the gate takes the
#: median speedup over them and prints its spread.
DATAPLANE_SEEDS = (42, 1042, 2042, 3042, 4042)


def _dataplane_trials(scale: float) -> list[dict]:
    reps = max(int(3 * scale), 2)
    return [{"seed": seed, "reps": reps} for seed in DATAPLANE_SEEDS]


def _dataplane_run(params: dict, rng: np.random.Generator) -> dict:
    from .dataplane import compare_data_planes

    row = compare_data_planes(reps=params["reps"], seed=params["seed"])
    return {"seed": params["seed"], **row}


register(
    Experiment(
        name="dataplane-bench",
        title="Data-plane microbenchmark: batched overlay plane vs. per-packet reference at 64 messages",
        build_trials=_dataplane_trials,
        run_trial=_dataplane_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- GF(2^8) kernel microbenchmark -------------------------------------------------

#: The gfbench acceptance target: the compiled GF(2^8) kernel must beat the
#: numpy reference by at least this factor at the data plane's shapes.
GFBENCH_TARGET_SPEEDUP = 3.0


def _gfbench_trials(scale: float) -> list[dict]:
    reps = max(int(3 * scale), 2)
    # Three seeds per operation so the benchmark gate's median is a genuine
    # middle value.
    return [
        {"op": op, "seed": seed, "reps": reps}
        for op in ("matmul", "invert")
        for seed in (42, 1042, 2042)
    ]


def _gfbench_run(params: dict, rng: np.random.Generator) -> dict:
    from .gfbench import compare_kernels

    row = compare_kernels(params["op"], reps=params["reps"], seed=params["seed"])
    return {"seed": params["seed"], **row}


register(
    Experiment(
        name="gfbench",
        title="GF(2^8) kernel microbenchmark: compiled kernel vs. numpy reference at dataplane shapes",
        build_trials=_gfbench_trials,
        run_trial=_gfbench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        kernels=("numpy",),  # it measures the kernels against each other itself
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- Chaum-mix Monte-Carlo microbenchmark ------------------------------------------

#: Trial count of the batched-vs-scalar Chaum comparison.
CHAUMBENCH_TRIALS = 1000

#: The chaumbench acceptance target: the batched engine must beat the scalar
#: loop by at least this factor at :data:`CHAUMBENCH_TRIALS` trials.
CHAUMBENCH_TARGET_SPEEDUP = 10.0


def _chaumbench_trials(scale: float) -> list[dict]:
    reps = max(int(5 * scale), 1)
    # Three parameter points so the benchmark gate's median is a genuine
    # middle value.
    return [
        {"fraction_malicious": f, "trials": CHAUMBENCH_TRIALS, "reps": reps}
        for f in (0.1, 0.25, 0.4)
    ]


def _chaumbench_run(params: dict, rng: np.random.Generator) -> dict:
    fraction = params["fraction_malicious"]
    trials = params["trials"]
    reps = params["reps"]
    seed = spawn_seed(rng)
    kwargs = dict(
        num_nodes=DEFAULT_N, path_length=8, fraction_malicious=fraction, trials=trials
    )

    # Warm both engines and verify the vectorised path reproduces the scalar
    # reference bit-for-bit on this parameter point before timing anything.
    scalar_values = simulate_chaum_trials(
        **kwargs, rng=np.random.default_rng(seed), engine="scalar"
    )
    batched_values = simulate_chaum_trials(
        **kwargs, rng=np.random.default_rng(seed), engine="batched"
    )
    identical = bool(
        np.array_equal(scalar_values.source_anonymity, batched_values.source_anonymity)
        and np.array_equal(
            scalar_values.destination_anonymity, batched_values.destination_anonymity
        )
    )

    # Same noise-robust estimator as the other microbenchmarks: identical
    # seeds on both sides, per-rep minimum.
    scalar_times = []
    for _ in range(reps):
        start = time.perf_counter()
        simulate_chaum_anonymity(**kwargs, rng=np.random.default_rng(seed))
        scalar_times.append(time.perf_counter() - start)
    scalar_seconds = min(scalar_times)

    batched_times = []
    for _ in range(reps):
        start = time.perf_counter()
        simulate_chaum_anonymity_batch(**kwargs, rng=np.random.default_rng(seed))
        batched_times.append(time.perf_counter() - start)
    batched_seconds = min(batched_times)

    return {
        "fraction_malicious": fraction,
        "trials": trials,
        "scalar_ms": scalar_seconds * 1e3,
        "batched_ms": batched_seconds * 1e3,
        "speedup": scalar_seconds / max(batched_seconds, 1e-12),
        "identical": identical,
    }


register(
    Experiment(
        name="chaumbench",
        title="Fig. 7 microbenchmark: batched vs. scalar Chaum-mix Monte-Carlo at 1000 trials",
        build_trials=_chaumbench_trials,
        run_trial=_chaumbench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- Sphinx batched-cell microbenchmark --------------------------------------------

#: Messages per burst in the batched-vs-per-cell Sphinx comparison.
SPHINXBENCH_MESSAGES = 192

#: The sphinxbench acceptance target: one circuit keystream plus a vectorised
#: XOR per burst must beat the per-cell StreamCipher loop by at least this
#: factor at :data:`SPHINXBENCH_MESSAGES` messages.
SPHINXBENCH_TARGET_SPEEDUP = 2.0


def _sphinxbench_trials(scale: float) -> list[dict]:
    reps = max(int(5 * scale), 2)
    # Three path lengths so the benchmark gate's median is a genuine middle
    # value.
    return [
        {"path_length": length, "messages": SPHINXBENCH_MESSAGES, "reps": reps}
        for length in (3, 5, 8)
    ]


def _sphinxbench_run(params: dict, rng: np.random.Generator) -> dict:
    from ..baselines.sphinx import SphinxDirectory, SphinxRelay, SphinxSource

    path_length = params["path_length"]
    count = params["messages"]
    reps = params["reps"]
    build_rng = np.random.default_rng(spawn_seed(rng))
    relays = [f"bench-{index}" for index in range(path_length)]
    directory = SphinxDirectory.for_relays(relays, build_rng)
    source = SphinxSource(directory, build_rng)
    circuit, packet = source.build_circuit(relays, "bench-destination", path_length)
    engines = {
        address: SphinxRelay(address, directory.node(address)) for address in relays
    }
    handles = []
    current = packet
    for hop in circuit.hops:
        handle, _next_hop, current = engines[hop].handle_setup(current)
        handles.append((hop, handle))
    messages = [
        bytes(build_rng.integers(0, 256, size=512, dtype=np.uint8).tobytes())
        for _ in range(count)
    ]

    def per_cell_pass() -> list[bytes]:
        cells = [source.wrap_data(circuit, message) for message in messages]
        for hop, handle in handles:
            cells = [engines[hop].handle_data(handle, cell)[1] for cell in cells]
        return cells

    def batched_pass() -> list[bytes]:
        cells = source.wrap_cells(circuit, messages)
        for hop, handle in handles:
            _next_hop, cells = engines[hop].strip_cells(handle, cells)
        return cells

    # Warm both paths and verify the batched burst is bit-identical to the
    # per-cell reference before timing anything.
    identical = per_cell_pass() == batched_pass()

    # Same noise-robust estimator as the other microbenchmarks: per-rep
    # minimum on identical inputs.
    scalar_times = []
    for _ in range(reps):
        start = time.perf_counter()
        per_cell_pass()
        scalar_times.append(time.perf_counter() - start)
    scalar_seconds = min(scalar_times)

    batched_times = []
    for _ in range(reps):
        start = time.perf_counter()
        batched_pass()
        batched_times.append(time.perf_counter() - start)
    batched_seconds = min(batched_times)

    return {
        "path_length": path_length,
        "messages": count,
        "per_cell_ms": scalar_seconds * 1e3,
        "batched_ms": batched_seconds * 1e3,
        "speedup": scalar_seconds / max(batched_seconds, 1e-12),
        "identical": identical,
    }


register(
    Experiment(
        name="sphinxbench",
        title="Sphinx microbenchmark: batched cell wrap/strip vs. per-cell StreamCipher loop",
        build_trials=_sphinxbench_trials,
        run_trial=_sphinxbench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- symmetric keystream microbenchmark --------------------------------------------

#: The cryptobench acceptance targets: the shipped keystream must beat the
#: per-block definition by at least the first factor on every path, and by
#: the second when it runs on the SHA-NI kernel.
CRYPTOBENCH_TARGET_SPEEDUP = 1.3
CRYPTOBENCH_SHA_NI_TARGET_SPEEDUP = 4.0

#: Keystream lengths timed: an MTU-sized cell and a 2 KiB frame.
CRYPTOBENCH_SIZES = (1500, 2048)

#: Timed repetitions per size, at least; the gate takes their median.
CRYPTOBENCH_REPETITIONS = 5


def _cryptobench_trials(scale: float) -> list[dict]:
    repetitions = max(int(5 * scale), CRYPTOBENCH_REPETITIONS)
    return [
        {"bytes": size, "repetition": repetition}
        for size in CRYPTOBENCH_SIZES
        for repetition in range(repetitions)
    ]


def _cryptobench_run(params: dict, rng: np.random.Generator) -> dict:
    from .cryptobench import compare_keystreams

    row = compare_keystreams(params["bytes"], seed=spawn_seed(rng))
    return {"repetition": params["repetition"], **row}


register(
    Experiment(
        name="cryptobench",
        title="Keystream microbenchmark: shipped StreamCipher.keystream vs. per-block SHA-256 definition",
        build_trials=_cryptobench_trials,
        run_trial=_cryptobench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        shardable=False,  # single-host comparison; numbers mean nothing sharded
    )
)


# -- distributed-sharding benchmark ------------------------------------------------

#: Experiment the distributed-sharding benchmark shards (fig11: four
#: sizeable, roughly comparable throughput trials — the canonical
#: dist-parity workload).
DISTBENCH_EXPERIMENT = "fig11"

#: The distbench acceptance target: sharding across 2 workers must beat a
#: single worker's compute time by at least this factor at bench scale.
DISTBENCH_TARGET_SPEEDUP = 1.5

#: Minimum host CPUs for the speedup number to mean anything: two worker
#: processes time-slicing one core measure scheduler fairness, not sharding.
#: Below this the benchmark records a ``"skipped"`` row (rendered ``n/a`` by
#: the bench-history trend) instead of a misleading failure.
DISTBENCH_MIN_CPUS = 2

#: Independent 1-vs-2-worker measurements per run; the gate takes their
#: median, because a single sample on a shared 2-CPU host is at the mercy of
#: whatever else the host runs meanwhile.
DISTBENCH_REPETITIONS = 5


def _distbench_trials(scale: float) -> list[dict]:
    # The *inner* scale sizes fig11's per-trial work (num_messages) so that
    # trial execution dominates lease round-trips; the floor keeps the
    # 2-worker speedup measurable even at the default bench scale of 0.1.
    inner_scale = round(max(3.0 * scale, 1.5), 4)
    return [
        {"experiment": DISTBENCH_EXPERIMENT, "inner_scale": inner_scale,
         "worker_counts": [1, 2], "repetition": repetition}
        for repetition in range(DISTBENCH_REPETITIONS)
    ]


def _distbench_run(params: dict, rng: np.random.Generator) -> dict:
    import os
    import tempfile
    from pathlib import Path

    from .distributed import run_distributed
    from .runner import run_experiment

    name = params["experiment"]
    cpu_count = os.cpu_count() or 1
    if cpu_count < DISTBENCH_MIN_CPUS:
        return {
            "experiment": name,
            "cpu_count": cpu_count,
            "skipped": (
                f"host has {cpu_count} CPU(s); the 2-worker sharding speedup "
                f"needs >= {DISTBENCH_MIN_CPUS} to measure parallelism rather "
                "than time-slicing"
            ),
        }
    inner_scale = params["inner_scale"]
    worker_counts = list(params["worker_counts"])
    seed = spawn_seed(rng)
    compute_seconds: dict[int, float] = {}
    byte_identical = True
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        reference = run_experiment(
            name, scale=inner_scale, seed=seed, out_dir=root / "single", force=True
        )
        reference_bytes = (root / "single" / f"{name}.json").read_bytes()
        for count in worker_counts:
            out_dir = root / f"dist-{count}"
            result = run_distributed(
                name,
                scale=inner_scale,
                seed=seed,
                out_dir=out_dir,
                force=True,
                workers=count,
                min_workers=count,
            )
            compute_seconds[count] = result.compute_seconds
            byte_identical &= (
                out_dir / f"{name}.json"
            ).read_bytes() == reference_bytes
    base = worker_counts[0]
    best = worker_counts[-1]
    return {
        "experiment": name,
        "repetition": params["repetition"],
        "cpu_count": cpu_count,
        "inner_scale": inner_scale,
        "trials_sharded": reference.trial_count,
        "workers": best,
        f"seconds_{base}w": compute_seconds[base],
        f"seconds_{best}w": compute_seconds[best],
        "speedup": compute_seconds[base] / max(compute_seconds[best], 1e-12),
        "byte_identical": byte_identical,
    }


register(
    Experiment(
        name="distbench",
        title="Distributed sharding benchmark: fig11 leased to 2 workers vs. 1",
        build_trials=_distbench_trials,
        run_trial=_distbench_run,
        deterministic=False,  # wall-clock timings; never serve from cache
        kernels=("numpy",),  # it spawns worker processes of its own
        shardable=False,  # it *runs* the coordinator; sharding it would nest fan-outs
    )
)


# -- distributed transport sweep ----------------------------------------------------

#: Worker counts the sweep shards fig11 across; counts beyond the host's
#: CPUs are recorded as skipped rather than measured as time-slicing.
DISTSWEEP_WORKER_COUNTS = (1, 2, 4, 8)

#: Wire transports the sweep compares (same trial payloads either way).
DISTSWEEP_TRANSPORTS = ("plain", "secure")

#: The distsweep acceptance target, asserted on the median multi-worker
#: speedup across both transports: the secure channel's handshake and
#: per-frame AEAD must not erase the sharding win.
DISTSWEEP_TARGET_SPEEDUP = 1.5


def _distsweep_trials(scale: float) -> list[dict]:
    # Same inner-scale floor as distbench: per-trial work must dominate
    # lease round-trips for the speedups to measure sharding.
    inner_scale = round(max(3.0 * scale, 1.5), 4)
    return [
        {
            "experiment": DISTBENCH_EXPERIMENT,
            "inner_scale": inner_scale,
            "worker_counts": list(DISTSWEEP_WORKER_COUNTS),
            "transports": list(DISTSWEEP_TRANSPORTS),
        }
    ]


def _distsweep_run(params: dict, rng: np.random.Generator) -> dict:
    import os
    import tempfile
    from pathlib import Path

    from .distributed import run_distributed
    from .runner import run_experiment

    name = params["experiment"]
    cpu_count = os.cpu_count() or 1
    if cpu_count < DISTBENCH_MIN_CPUS:
        return {
            "experiment": name,
            "cpu_count": cpu_count,
            "skipped": (
                f"host has {cpu_count} CPU(s); multi-worker sharding speedups "
                f"need >= {DISTBENCH_MIN_CPUS} to measure parallelism rather "
                "than time-slicing"
            ),
        }
    inner_scale = params["inner_scale"]
    seed = spawn_seed(rng)
    measurements: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        reference = run_experiment(
            name, scale=inner_scale, seed=seed, out_dir=root / "single", force=True
        )
        reference_bytes = (root / "single" / f"{name}.json").read_bytes()
        for transport in params["transports"]:
            base_seconds: float | None = None
            for count in params["worker_counts"]:
                if count > cpu_count:
                    measurements.append(
                        {
                            "transport": transport,
                            "workers": count,
                            "skipped": (
                                f"host has {cpu_count} CPU(s); "
                                f"{count} workers would time-slice"
                            ),
                        }
                    )
                    continue
                out_dir = root / f"{transport}-{count}"
                result = run_distributed(
                    name,
                    scale=inner_scale,
                    seed=seed,
                    out_dir=out_dir,
                    force=True,
                    workers=count,
                    min_workers=count,
                    transport=transport,
                )
                measurement = {
                    "transport": transport,
                    "workers": count,
                    "seconds": result.compute_seconds,
                    "byte_identical": (
                        (out_dir / f"{name}.json").read_bytes() == reference_bytes
                    ),
                }
                if count == 1:
                    base_seconds = result.compute_seconds
                elif base_seconds is not None:
                    measurement["speedup"] = base_seconds / max(
                        result.compute_seconds, 1e-12
                    )
                measurements.append(measurement)
    return {
        "experiment": name,
        "cpu_count": cpu_count,
        "inner_scale": inner_scale,
        "trials_sharded": reference.trial_count,
        "measurements": measurements,
    }


def _distsweep_reduce(trials: list[dict], results: list[dict]) -> list[dict]:
    # One artifact row per (transport, worker count): the speedup column is
    # what the bench-history gate reads, the byte_identical column is the
    # cross-transport correctness claim.
    rows: list[dict] = []
    for result in results:
        if "skipped" in result:
            rows.append(result)
            continue
        context = {
            key: result[key]
            for key in ("experiment", "cpu_count", "inner_scale", "trials_sharded")
        }
        for measurement in result["measurements"]:
            rows.append({**context, **measurement})
    return rows


register(
    Experiment(
        name="distsweep",
        title=(
            "Distributed transport sweep: fig11 sharded across 1/2/4/8 "
            "workers, plain vs. secure wire"
        ),
        build_trials=_distsweep_trials,
        run_trial=_distsweep_run,
        reduce=_distsweep_reduce,
        deterministic=False,  # wall-clock timings; never serve from cache
        kernels=("numpy",),  # it spawns worker processes of its own
        shardable=False,  # it *runs* the coordinator; sharding it would nest fan-outs
    )
)

