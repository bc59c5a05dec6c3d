"""Benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload homa_w4 --seed 1 --seconds 20 --trace 0

Prints a human-readable report and, as its last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: default workload seed (the baseline in perfbench/baseline.json uses it)
DEFAULT_SEED = 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator source under {ROOT / 'src'}; run from "
              f"a full checkout", file=sys.stderr)
        return 2
    for path in (ROOT / "benchmarks", ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))

    from perfbench.bench import run_workload
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    report = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for line in report.lines():
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
