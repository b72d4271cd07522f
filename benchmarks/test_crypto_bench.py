"""Keystream gate: the shipped ``StreamCipher.keystream`` vs. its definition.

Times the shipped keystream against the literal per-block SHA-256
definition at 1500 and 2048 bytes over at least
:data:`~repro.experiments.figures.CRYPTOBENCH_REPETITIONS` repetitions.
The bytes must be identical on every repetition, and for each size the
median speedup must reach
:data:`~repro.experiments.figures.CRYPTOBENCH_TARGET_SPEEDUP` on whichever
path is active (``hashlib``, ``portable`` or ``sha-ni``), and
:data:`~repro.experiments.figures.CRYPTOBENCH_SHA_NI_TARGET_SPEEDUP` on
``sha-ni``.  Regenerates the series through the experiment runner
(``run_experiment("cryptobench")``).
"""

import statistics

from repro.experiments import format_table
from repro.experiments.figures import (
    CRYPTOBENCH_REPETITIONS,
    CRYPTOBENCH_SHA_NI_TARGET_SPEEDUP,
    CRYPTOBENCH_SIZES,
    CRYPTOBENCH_TARGET_SPEEDUP,
)
from repro.experiments.runner import experiment_rows


def test_keystream_bench(benchmark, scale):
    rows = benchmark.pedantic(
        experiment_rows, kwargs={"name": "cryptobench", "scale": scale}, iterations=1, rounds=1
    )
    print()
    print(format_table(rows))
    # Every repetition must reproduce the definition bit-for-bit.
    assert all(row["identical"] for row in rows)
    (path,) = {row["path"] for row in rows}
    target = CRYPTOBENCH_SHA_NI_TARGET_SPEEDUP if path == "sha-ni" else CRYPTOBENCH_TARGET_SPEEDUP
    for size in CRYPTOBENCH_SIZES:
        speedups = sorted(row["speedup"] for row in rows if row["bytes"] == size)
        assert len(speedups) >= CRYPTOBENCH_REPETITIONS
        median = statistics.median(speedups)
        quartiles = statistics.quantiles(speedups, n=4)
        spread = (
            f"{path} path, {size} B: median {median:.2f}x over {len(speedups)} repetitions, "
            f"IQR {quartiles[0]:.2f}-{quartiles[2]:.2f}x, "
            f"range {speedups[0]:.2f}-{speedups[-1]:.2f}x"
        )
        print(spread)
        assert median >= target, f"keystream speedup below the {target}x gate ({spread})"
