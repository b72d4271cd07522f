"""One benchmark set-up in a fresh process: imports, GF kernel, warm-up.

``run.py`` times this script as a whole, several times per run, and
reports the median as ``setup_s``.  Usage::

    python3 perfbench/setup_probe.py <workload> <seed> <shape>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    workload, seed, shape = argv
    import transfers
    from repro.core import gf

    gf.default_field()
    warm = transfers.warm_up(transfers.WORKLOADS[workload], int(seed), transfers.SHAPES[shape])
    return 0 if warm.correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
