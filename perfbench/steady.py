"""Steadiness self-check: repeat each workload and compare spreads to bounds.

Usage, from the repository root::

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workload NAME ...]
                                [--record FILE] [--against FILE]

Runs ``perfbench/run.py`` once per seed (``first-seed`` upwards), one
run at a time, for each workload, with the ``run_seconds`` of
BENCHMARK.json.  For every end-to-end metric it prints the median and
the interquartile range of the runs (``statistics.quantiles(n=4)``),
the spread (IQR / median) and the metric's bound, and flags a spread
above the bound.  It also flags every run that was not correct, and
counts the distinct ``sim_digest`` values (one for the seed-free
workloads).  ``--record`` saves every run's digest and metric values;
``--against`` compares this set of runs with a recorded one:
each ``(workload, seed)`` must give the same ``sim_digest``, and each
metric's median may not be worse than the recorded median by more than
its bound.  Exit status 1 if anything is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next((line.split()[1] for line in lines
                   if line.startswith("sim_digest ")), None)
    return json.loads(lines[-1]), digest


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--record", metavar="FILE",
                        help="write every run's digest and values here")
    parser.add_argument("--against", metavar="FILE",
                        help="compare with a file written by --record")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    metrics = spec["end_to_end"]
    recorded = (json.loads(Path(args.against).read_text())
                if args.against else {})
    record: dict = {}
    flagged = 0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict = {m["name"]: [] for m in metrics}
        digests: dict = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            doc, digests[str(seed)] = _run(workload, seed,
                                           spec["run_seconds"])
            if not doc["correct"] or doc["failed"]:
                print(f"{workload} seed {seed}: correct={doc['correct']} "
                      f"failed={doc['failed']}")
                flagged += 1
            for name in values:
                values[name].append(doc["metrics"][name]["value"])
            print(f"{workload} seed {seed}: digest {digests[str(seed)]} "
                  + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
                  flush=True)
        record[workload] = {"digests": digests, "values": values}
        print(f"== {workload}: {args.runs} runs, "
              f"{len(set(digests.values()))} distinct sim_digest(s)")
        before = recorded.get(workload)
        if before:
            moved = sorted(seed for seed, d in digests.items()
                           if seed in before["digests"]
                           and before["digests"][seed] != d)
            flagged += bool(moved)
            print(f"  sim_digest vs recorded: "
                  + (f"DIFFERS for seeds {moved}" if moved else "identical"))
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            median, q1, q3, rel = spread(values[name])
            over = rel > bound
            line = (f"  {name:28s} median {median:<14.6g} "
                    f"IQR {q1:.6g}..{q3:.6g}  spread {rel:7.2%}"
                    f"  bound {bound:.0%} (/3 = {bound / 3:.2%})")
            if over:
                line += "  OVER BOUND"
            if before and name in before["values"]:
                old = statistics.median(before["values"][name])
                worse = (median - old if metric["better"] == "lower"
                         else old - median) / old if old else 0.0
                drift = worse > bound
                over = over or drift
                line += f"  vs recorded {worse:+.2%}" + (
                    "  DRIFT OVER BOUND" if drift else "")
            flagged += over
            print(line, flush=True)
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    return 1 if flagged else 0


if __name__ == "__main__":
    raise SystemExit(main())
