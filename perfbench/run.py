"""Wall-clock transfer benchmark: per-scheme goodput, route-setup latency, layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload lan-bulk --seed 1 --seconds 12 --trace 0

``--seconds`` sizes the run: it does as many whole cycles of the workload
as take that long at the reference host speed (:mod:`hostspeed`), so a run
does the same work on every host.  ``--trace 0`` runs them untraced and
reports the end-to-end metrics, with every timing scaled to the reference
host speed.  ``--trace 1`` runs half as many cycles untraced, then the same
cycles again with every layer wrapped (:mod:`spans`), and reports the
per-layer ledger.  Every delivered plaintext is compared with the message
sent under its sequence number; a wrong plaintext, an exception, or a lost
message on a LAN workload makes the run fail with exit code 1.  The last
line of standard output is one JSON object; the lines before it give every
metric with its unit and sample count (and the plain wall-clock figure next
to each reference-speed one), and the run's provenance.

All traffic stays inside this process: the sim workloads never leave the
discrete-event simulator, and the aio workloads use loopback TCP between
endpoints of the same event loop.  No real link is crossed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = ROOT / ".perfbench"

#: Fresh-process set-ups timed per run; their median is ``setup_s``.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120

#: Printed with the other end-to-end metrics but kept out of the JSON
#: metrics.  error_ratio is 0 on every passing run, and the result's
#: ``failed`` over ``attempted`` carries it; host_speed describes the host,
#: not the program.
PRINTED_ONLY = {"error_ratio", "host_speed"}

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


def provenance(workload, seed: int) -> dict:
    import numpy

    from repro.core import gf, gf_kernels

    field = gf.default_field()
    return {
        "workload": workload.name,
        "seed": seed,
        "backend": workload.backend,
        "aio_transport": workload.transport,
        "link": workload.link,
        "load": "closed loop, one process, one thread",
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gf_kernel": field.kernel,
        # Probing the compiled provider would build it; report it only when
        # the active kernel already loaded it.
        "gf_provider": gf_kernels.provider_name() if field.kernel == "compiled" else "numpy",
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int, shape_name: str) -> list[float]:
    """Fresh-process set-up times, at the reference host speed.

    A probe lasts far longer than one kernel sample, so each is scaled by
    the mean of the kernel times taken right before and right after it.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        before = hostspeed.sample()
        start = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), shape_name],
            cwd=ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
            timeout=SETUP_TIMEOUT_S,
        )
        elapsed = perf_counter() - start
        kernel_s = (before + hostspeed.sample()) / 2
        samples.append(elapsed * hostspeed.REFERENCE_S / kernel_s)
    return samples


def main(argv: list[str] | None = None, shape_name: str = "full") -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import transfers

    workload = transfers.WORKLOADS.get(args.workload)
    if workload is None:
        known = ", ".join(transfers.WORKLOADS)
        print(f"error: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2
    shape = transfers.SHAPES[shape_name]
    info = provenance(workload, args.seed)
    print("provenance " + json.dumps(info, sort_keys=True))

    setup = [] if args.trace else measure_setup(workload.name, args.seed, shape_name)
    warm = transfers.warm_up(workload, args.seed, shape)
    if args.trace:
        untraced = transfers.run_workload(
            workload, args.seed, shape, workload.cycles_for(args.seconds / 2), calibrate=False
        )
        recorder = spans.SpanRecorder()

        def tag(transfer: int) -> None:
            recorder.transfer = transfer

        with spans.traced(recorder):
            traced_run = transfers.run_workload(
                workload, args.seed, shape, untraced.cycles, on_transfer=tag, calibrate=False
            )
        ledger = spans.ledger(recorder)
        metrics = spans.layer_metrics(ledger, traced_run, untraced)
        runs = [warm, untraced, traced_run]
        # Tracing must not change what is delivered.
        same = traced_run.digest() == untraced.digest()
        recorder.save(SPAN_DIR / f"spans-{workload.name}-seed{args.seed}.npz", info)
    else:
        run = transfers.run_workload(
            workload, args.seed, shape, workload.cycles_for(args.seconds)
        )
        metrics = transfers.end_to_end(run)
        metrics.append(("setup_s", statistics.median(setup), "s",
                        f"median of {len(setup)} fresh-process set-ups"))
        runs = [warm, run]
        same = True

    correct = same and all(run.correct for run in runs)
    for name, value, unit, note in metrics:
        print(f"{workload.name} {name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    result = {
        "correct": correct,
        "attempted": sum(run.attempted for run in runs),
        "failed": sum(run.failed for run in runs),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, value, unit, _ in metrics
            if name not in PRINTED_ONLY
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
