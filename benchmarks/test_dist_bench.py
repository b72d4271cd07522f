"""Distributed-sharding gate: coordinator/worker speedup and byte-identity.

Runs the ``distbench`` experiment: fig11's trials leased over TCP to 1 and
then 2 local worker processes, repeated
:data:`~repro.experiments.figures.DISTBENCH_REPETITIONS` times.  The merged
artifact must be byte-identical to the single-process run in *every*
configuration of every repetition, and with 2 workers the compute phase
(first lease granted -> last result merged, i.e. excluding interpreter
start-up) must beat 1 worker by
:data:`~repro.experiments.figures.DISTBENCH_TARGET_SPEEDUP` in the median
over the repetitions; their spread is printed with the result.  The speedup
needs real parallelism: below
:data:`~repro.experiments.figures.DISTBENCH_MIN_CPUS` host CPUs the
experiment itself records a ``"skipped"`` row carrying the reason (and its
``cpu_count``), this gate skips with that reason, and the bench-history
trend renders the gate as ``n/a`` — CI runners provide at least two cores,
so there the gate is enforced.
"""

import os
import statistics

import pytest

from repro.experiments import format_table
from repro.experiments.figures import (
    DISTBENCH_MIN_CPUS,
    DISTBENCH_REPETITIONS,
    DISTBENCH_TARGET_SPEEDUP,
)
from repro.experiments.runner import run_experiment


def test_distributed_sharding_speedup_and_byte_identity(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        kwargs={"name": "distbench", "scale": scale},
        iterations=1,
        rounds=1,
    )
    print()
    print(format_table(result.rows))
    assert len(result.rows) >= DISTBENCH_REPETITIONS
    # Every row records the host parallelism the measurement ran under.
    assert all(row["cpu_count"] == (os.cpu_count() or 1) for row in result.rows)
    skipped = [row for row in result.rows if "skipped" in row]
    if skipped:
        assert all(row["cpu_count"] < DISTBENCH_MIN_CPUS for row in skipped)
        pytest.skip(skipped[0]["skipped"])
    # Byte-identity of the distributed merge is machine-independent.
    assert all(row["byte_identical"] for row in result.rows)
    speedups = sorted(row["speedup"] for row in result.rows)
    median = speedups[len(speedups) // 2]
    quartiles = statistics.quantiles(speedups, n=4)
    spread = (
        f"median {median:.2f}x over {len(speedups)} repetitions, "
        f"IQR {quartiles[0]:.2f}-{quartiles[2]:.2f}x, "
        f"range {speedups[0]:.2f}-{speedups[-1]:.2f}x"
    )
    print(f"2-worker sharding speedup: {spread}")
    assert median >= DISTBENCH_TARGET_SPEEDUP, (
        f"2-worker sharding speedup is below the {DISTBENCH_TARGET_SPEEDUP}x "
        f"gate ({spread}; speedups: {speedups})"
    )
