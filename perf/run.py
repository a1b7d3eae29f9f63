#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1

measures one workload and prints every metric by name with its unit, then
one JSON object on the last line.  Without ``--workload`` it runs all
seven, each in its own process.  See ``perf/README.md``.
"""

import sys
from pathlib import Path
from time import perf_counter

if __name__ == "__main__":
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro").is_dir():
        sys.exit("perf/run.py: no src/repro beside perf/ — nothing to measure")
    # The checkout's sources first, so an installed copy is never measured.
    sys.path[:0] = [str(root / "src"), str(root)]
    started = perf_counter()
    import perf.workloads  # noqa: F401  (numpy and every repro module the workloads use)

    import_s = perf_counter() - started
    from perf.bench import main

    sys.exit(main(import_s=import_s))
