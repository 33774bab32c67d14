"""Benchmark entry point.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 15 --trace 0

Runs one workload (``paper``, ``fabric``, ``serve`` or ``observed``) in
this process, prints a human-readable report, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  It imports ``repro`` from ``src/`` next to
this directory and exits non-zero, printing no result, without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("paper", "fabric", "serve", "observed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="host seconds of passes to measure "
                             "(at least one pass always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run one profiled pass and report "
                             "the per-layer metrics")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench.clock import SpeedClock
    with SpeedClock() as clock:
        start = clock.now()
        from perfbench import harness  # imports repro: part of set-up
        import_s = clock.now() - start
        outcome = harness.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), clock, import_s)
    for line in outcome.lines:
        print(line)
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed,
                      "metrics": outcome.metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
