"""Run one workload: timed passes, output checks, traced breakdown.

An untraced run (``trace=False``) repeats the workload's pass until
``seconds`` have elapsed (at least once) and reports the end-to-end
metrics as medians over the passes:

* ``wall_s``: host seconds per pass, less the time spent constructing
  clusters;
* ``setup_s``: host seconds to import ``repro`` plus the per-pass
  cluster construction time;

both read from a :class:`~perfbench.clock.SpeedClock`, i.e. in seconds
at the clock's reference machine speed;
* ``peak_rss_mb``: the process's peak resident set;
* ``paper_err_pct``: mean |measured - paper| / paper over the 22 paper
  numbers in Table 3 and the Section 5 overheads.  ``paper`` and
  ``observed`` compute those cells in every pass; ``fabric`` and
  ``serve`` compute them once after the timed passes.

A traced run (``trace=True``) does the same untraced passes, then one
more pass under cProfile with the build timer, GC timer and counter
readers attached, and reports the per-layer metrics of that pass.
"""

from __future__ import annotations

import cProfile
import gc
import os
import pstats
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import repro
from perfbench import layers
from perfbench.clock import SpeedClock
from perfbench.probes import (COUNTERS, STAGES, BuildTimer, GcTimer,
                              read_counters, stage_metric, stage_sums)
from perfbench.workloads import (REFERENCE_UNITS, Paper, Workload, digest,
                                 disable_observers, make_workload,
                                 paper_err_pct)

__all__ = ["Outcome", "run", "END_TO_END", "PER_LAYER", "RESULTS"]

#: end-to-end metrics: name -> unit
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "paper_err_pct": "%"}

#: simulated results of single workloads: name -> unit (0 elsewhere)
RESULTS = {"serve.sim_p50_us": "sim_us", "serve.sim_p99_us": "sim_us",
           "serve.sim_goodput_rps": "req/sim_s",
           "firmware.sim_nic_barrier_us": "sim_us",
           "upper.sim_host_barrier_us": "sim_us"}

#: per-layer metrics: name -> unit, in report order
PER_LAYER: dict = {}
for _layer in layers.LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update({
    "gc.collections": "count", "gc.pause_s": "s",
    "cluster.builds": "count", "cluster.build_s": "s",
    "sim.events": "count", "sim.host_ns_per_event": "ns",
    "kernel.traps": "count", "kernel.interrupts": "count",
    "kernel.pindown_hit_ratio": "ratio",
    "hw.pio_words": "count", "hw.dma_bytes": "count",
    "hw.switch_forwards": "count", "hw.link_busy_ns": "sim_ns",
    "firmware.retransmissions": "count",
    "firmware.nic_coll_packets": "count",
    "upper.eadi_credit_stalls": "count",
    "serve.admission_parks": "count", "serve.shed": "count",
})
PER_LAYER.update(RESULTS)
PER_LAYER.update({stage_metric(stage): "sim_ns" for stage in STAGES})
PER_LAYER.update({"bench.untraced_pass_s": "s", "bench.traced_pass_s": "s",
                  "bench.trace_overhead_x": "x"})

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__))
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Pass:
    wall_s: float           # on the run's clock, less cluster builds
    build_s: float          # on the run's clock
    raw_s: float            # whole pass, perf_counter seconds
    outputs: dict
    errors: list


@dataclass
class Outcome:
    """Everything one invocation reports."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict           # name -> {"value", "unit"}
    lines: list = field(default_factory=list)


def _run_pass(workload: Workload, units: list, builds: BuildTimer,
              after_unit: Optional[Callable[[], None]] = None) -> Pass:
    gc.collect()
    build_before = builds.build_s
    raw_start = time.perf_counter()
    start = builds.clock()
    outputs: dict = {}
    errors: list = []
    for unit in units:
        try:
            output = unit.run()
        except Exception as exc:  # a failed cell is counted, not fatal
            errors.append(f"{unit.name}: {type(exc).__name__}: {exc}")
            continue
        finally:
            if after_unit is not None:
                after_unit()
        problem = workload.check(unit.name, output)
        if problem:
            errors.append(f"{unit.name}: {problem}")
        outputs[unit.name] = output
    wall = builds.clock() - start
    raw = time.perf_counter() - raw_start
    build = builds.build_s - build_before
    return Pass(wall - build, build, raw, outputs, errors)


def _timed_passes(workload: Workload, units: list, seconds: float,
                  clock: Callable[[], float]) -> list:
    passes: list = []
    with BuildTimer(clock) as builds:
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < seconds:
            passes.append(_run_pass(workload, units, builds))
    # Every pass is the same simulated work, so its outputs must repeat.
    first = passes[0].outputs
    for later in passes[1:]:
        for name, output in later.outputs.items():
            if name in first and digest(output) != digest(first[name]):
                later.errors.append(f"{name}: output differs between passes")
    return passes


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _traced_pass(workload: Workload, units: list) -> tuple:
    """One pass under the profiler and outside readers."""
    totals = dict.fromkeys(COUNTERS, 0)
    profiler = cProfile.Profile()
    excluded = {"s": 0.0}
    with BuildTimer(hold=True) as builds, GcTimer() as gc_timer:
        def read_unit_counters() -> None:
            profiler.disable()
            start = time.perf_counter()
            read_counters(builds.take(), totals)
            excluded["s"] += time.perf_counter() - start
            profiler.enable()

        profiler.enable()
        traced = _run_pass(workload, units, builds, read_unit_counters)
        profiler.disable()
        pass_s = traced.raw_s - excluded["s"]
        collections, pause_s = gc_timer.collections, gc_timer.pause_s
        n_builds, build_s = builds.builds, builds.build_s
    folded = layers.fold(pstats.Stats(profiler).stats, _REPRO_DIR,
                         _BENCH_DIR)
    metrics = {}
    for layer, entry in folded.items():
        metrics[f"{layer}.self_s"] = entry["self_s"]
        metrics[f"{layer}.calls"] = entry["calls"]
    lookups = totals["kernel.pindown_hits"] + totals["kernel.pindown_misses"]
    metrics.update({
        "gc.collections": collections, "gc.pause_s": pause_s,
        "cluster.builds": n_builds, "cluster.build_s": build_s,
        "kernel.pindown_hit_ratio": (totals["kernel.pindown_hits"] / lookups
                                     if lookups else 0.0),
    })
    metrics.update({name: value for name, value in totals.items()
                    if name in PER_LAYER})
    return traced, metrics, pass_s


def _serve_counters(outputs: dict) -> dict:
    points = [out for out in outputs.values()
              if isinstance(out, dict) and "admission_parks" in out]
    return {
        "upper.eadi_credit_stalls": sum(p["credit_stalls"] for p in points),
        "serve.admission_parks": sum(p["admission_parks"] for p in points),
        "serve.shed": sum(p["shed_server"] + p["shed_client"]
                          for p in points),
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        clock: SpeedClock, import_s: float) -> Outcome:
    """Run workload ``name`` once; see the module docstring.

    ``clock`` is running; the end-to-end times are read from it and
    ``import_s`` is already on it.  A traced run stops it before the
    profiled pass, whose times are plain wall seconds.
    """
    disable_observers()
    workload = make_workload(name, seed)
    units = workload.units()
    checked: list = []
    traced = None
    try:
        if workload.needs_reference:
            with BuildTimer() as builds:
                reference = _run_pass(Workload(seed), units, builds)
            workload.reference = reference.outputs
            checked.append(reference)
        workload.prepare()
        passes = _timed_passes(workload, units, seconds, clock.now)
        if trace:
            clock.stop()
            traced, layer_metrics, traced_s = _traced_pass(workload, units)
    finally:
        workload.finish()
    outputs = dict(passes[0].outputs)
    checked += passes + ([traced] if traced else [])
    for unit, output in (traced.outputs.items() if traced else ()):
        if unit in outputs and digest(output) != digest(outputs[unit]):
            traced.errors.append(f"{unit}: profiling changed the output")
    attempted = len(units) * len(checked)
    errors = [e for p in checked for e in p.errors]
    # fabric and serve do not run the paper-number cells in their pass
    for unit in Paper(seed).units():
        if unit.name in REFERENCE_UNITS and unit.name not in outputs:
            attempted += 1
            try:
                outputs[unit.name] = unit.run()
            except Exception as exc:
                errors.append(f"{unit.name}: {type(exc).__name__}: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    walls = [p.wall_s for p in passes]
    builds = [p.build_s for p in passes]
    results: dict = {}
    if not errors:
        results = workload.results(outputs)
        results.setdefault("paper_err_pct", paper_err_pct(outputs))
    values = {"wall_s": statistics.median(walls),
              "setup_s": import_s + statistics.median(builds),
              "peak_rss_mb": peak_rss_mb}
    if "paper_err_pct" in results:
        values["paper_err_pct"] = results["paper_err_pct"]
    lines = [f"workload {name}  seed {seed} "
             f"({'used' if workload.seeded else 'not used: seed-free cells'})"
             f"  passes {len(passes)}  units/pass {len(units)}",
             f"sim_digest {digest(passes[0].outputs)}",
             f"fail_ratio {len(errors) / attempted:.6g} "
             f"({len(errors)} failed / {attempted} attempted)"]
    lines += [f"  FAILED {e}" for e in errors[:20]]
    q1, q3 = _quartiles(walls)
    lines.append(f"wall_s per pass: median {values['wall_s']:.4f} "
                 f"IQR {q1:.4f}..{q3:.4f} over {len(walls)} passes")
    for metric, value in sorted(results.items()):
        if metric in RESULTS:
            lines.append(f"{metric} {value} {RESULTS[metric]}")

    if not trace:
        metrics = {m: {"value": values[m], "unit": END_TO_END[m]}
                   for m in END_TO_END if m in values}
    else:
        untraced_s = statistics.median(p.raw_s for p in passes)
        per_layer = dict(layer_metrics)
        per_layer.update(_serve_counters(outputs))
        tables = [output["stage_table"] for output in outputs.values()
                  if isinstance(output, dict) and "stage_table" in output]
        per_layer.update({stage_metric(stage): ns
                          for stage, ns in stage_sums(tables).items()})
        for metric in RESULTS:
            per_layer[metric] = results.get(metric, 0.0)
        events = per_layer["sim.events"]
        per_layer["sim.host_ns_per_event"] = (
            values["wall_s"] * 1e9 / events if events else 0.0)
        per_layer.update({"bench.untraced_pass_s": untraced_s,
                          "bench.traced_pass_s": traced_s,
                          "bench.trace_overhead_x": traced_s / untraced_s})
        metrics = {m: {"value": per_layer[m], "unit": unit}
                   for m, unit in PER_LAYER.items() if m in per_layer}
        lines.append(f"trace overhead {traced_s / untraced_s:.2f}x "
                     f"({traced_s:.3f} s traced vs {untraced_s:.3f} s)")
    for metric, entry in metrics.items():
        lines.append(f"  {metric:32s} {entry['value']!r:>24} {entry['unit']}")
    wanted = PER_LAYER if trace else END_TO_END
    correct = not errors and all(m in metrics for m in wanted)
    return Outcome(correct, attempted, len(errors), metrics, lines)
