"""Simulated results repeat exactly across runs in one process."""

import pytest

from perfbench import harness
from perfbench.clock import SpeedClock

#: per-layer metrics that measure the simulation, not the host
SIMULATED_UNITS = {"count", "sim_ns", "sim_us", "req/sim_s", "ratio"}


def run(name, seed, trace=False):
    """One single-pass run of ``name``."""
    with SpeedClock() as clock:
        return harness.run(name, seed, 0, trace, clock, 0.0)


def digest_line(outcome):
    return next(line for line in outcome.lines
                if line.startswith("sim_digest "))


def simulated_lines(outcome):
    return [line for line in outcome.lines if ".sim_" in line]


@pytest.mark.parametrize("name", ["paper", "serve"])
def test_untraced_runs_repeat_exactly(name):
    first, second = run(name, 3), run(name, 3)
    assert first.correct and second.correct
    assert first.failed == second.failed == 0
    assert digest_line(first) == digest_line(second)
    assert first.metrics["paper_err_pct"] == second.metrics["paper_err_pct"]
    assert simulated_lines(first) == simulated_lines(second)
    if name == "serve":
        assert len(simulated_lines(first)) == 3
        assert digest_line(run(name, 4)) != digest_line(first)


def test_traced_runs_repeat_simulated_metrics_exactly():
    first, second = run("paper", 1, True), run("paper", 1, True)
    assert first.correct and second.correct
    assert set(first.metrics) == set(harness.PER_LAYER)
    for name, entry in first.metrics.items():
        layer = name.split(".")[0]
        if layer in ("bench", "other", "gc"):
            continue  # the GC callback and the clock run benchmark code
        if entry["unit"] in SIMULATED_UNITS:
            assert entry["value"] == second.metrics[name]["value"], name
    assert first.metrics["sim.events"]["value"] > 0
