"""BENCHMARK.json and the harness agree, and every name is well formed."""

import json
import re
from pathlib import Path

from perfbench import harness, layers, run, workloads

SPEC = json.loads((Path(__file__).resolve().parents[2]
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_follow_the_grammar():
    entries = SPEC["end_to_end"] + SPEC["per_layer"] + SPEC["workloads"]
    names = [entry["name"] for entry in entries]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher"), entry


def test_spec_lists_exactly_what_the_harness_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        harness.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        harness.PER_LAYER
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_every_layer_has_self_time_and_calls():
    for layer in layers.LAYERS:
        assert harness.PER_LAYER[f"{layer}.self_s"] == "s"
        assert harness.PER_LAYER[f"{layer}.calls"] == "count"


def test_bounds_leave_setup_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
