"""The layer fold charges every profiled sample to exactly one layer."""

import cProfile
import os
import pstats

import pytest

from perfbench import layers

REPRO = os.path.join(os.sep, "x", "src", "repro")
BENCH = os.path.join(os.sep, "x", "perfbench")


def fn(path, name, line=1):
    return (path, line, name)


SIM = fn(os.path.join(REPRO, "sim", "core.py"), "run")
HW = fn(os.path.join(REPRO, "hw", "link.py"), "pump")
CLUSTER = fn(os.path.join(REPRO, "cluster.py"), "__init__")
CLI = fn(os.path.join(REPRO, "cli.py"), "main")
BENCH_FN = fn(os.path.join(BENCH, "harness.py"), "run")
LEN = ("~", 0, "<built-in method builtins.len>")
STDLIB = fn("/usr/lib/python3.11/dataclasses.py", "replace")
ORPHAN = fn("/usr/lib/python3.11/importlib/_bootstrap.py", "_load")


def shares(folded):
    """Each layer's fraction of the folded self time."""
    total = sum(entry["self_s"] for entry in folded.values())
    return {layer: entry["self_s"] / total for layer, entry in folded.items()}


def synthetic_stats():
    """(cc, nc, tt, ct, callers); callers map to (cc, nc, tt, ct)."""
    return {
        BENCH_FN: (1, 1, 0.5, 10.0, {}),
        SIM: (1, 1, 2.0, 9.0, {BENCH_FN: (1, 1, 2.0, 9.0)}),
        HW: (10, 10, 1.0, 3.0, {SIM: (10, 10, 1.0, 3.0)}),
        CLUSTER: (2, 2, 0.25, 0.5, {BENCH_FN: (2, 2, 0.25, 0.5)}),
        CLI: (1, 1, 0.125, 0.125, {}),
        # len: 3 s from sim over 30 calls, 1 s from hw over 10 calls
        LEN: (40, 40, 4.0, 4.0, {SIM: (30, 30, 3.0, 3.0),
                                 HW: (10, 10, 1.0, 1.0)}),
        # stdlib code reached only through hw, calling a builtin
        STDLIB: (5, 5, 0.5, 1.0, {HW: (5, 5, 0.5, 1.0)}),
        ORPHAN: (1, 1, 0.75, 0.75, {}),
    }


def test_layer_of_maps_subpackages_and_top_level_modules():
    assert layers.layer_of(SIM[0], REPRO, BENCH) == "sim"
    assert layers.layer_of(CLUSTER[0], REPRO, BENCH) == "cluster"
    assert layers.layer_of(CLI[0], REPRO, BENCH) == "repro"
    assert layers.layer_of(BENCH_FN[0], REPRO, BENCH) == "bench"
    assert layers.layer_of("~", REPRO, BENCH) is None
    assert layers.layer_of(STDLIB[0], REPRO, BENCH) is None
    # a sibling directory that merely shares the prefix is not repro
    assert layers.layer_of(REPRO + "_old/sim.py", REPRO, BENCH) is None


def test_fold_charges_builtins_and_stdlib_to_their_callers():
    folded = layers.fold(synthetic_stats(), REPRO, BENCH)
    assert set(folded) == set(layers.LAYERS)
    assert folded["sim"]["self_s"] == pytest.approx(2.0 + 3.0)
    assert folded["hw"]["self_s"] == pytest.approx(1.0 + 1.0 + 0.5)
    assert folded["bench"]["self_s"] == pytest.approx(0.5)
    assert folded["cluster"]["self_s"] == pytest.approx(0.25)
    assert folded["repro"]["self_s"] == pytest.approx(0.125)
    assert folded["other"]["self_s"] == pytest.approx(0.75)
    assert folded["sim"]["calls"] == 1 + 30
    assert folded["hw"]["calls"] == 10 + 10 + 5


def test_every_sample_lands_in_exactly_one_layer():
    stats = synthetic_stats()
    folded = layers.fold(stats, REPRO, BENCH)
    total_tt = sum(stat[2] for stat in stats.values())
    total_nc = sum(stat[1] for stat in stats.values())
    assert sum(e["self_s"] for e in folded.values()) == \
        pytest.approx(total_tt)
    assert sum(e["calls"] for e in folded.values()) == total_nc
    assert sum(shares(folded).values()) == pytest.approx(1.0)


def test_recursion_through_non_repro_code_terminates():
    a = fn("/lib/a.py", "a")
    b = fn("/lib/b.py", "b")
    stats = {
        SIM: (1, 1, 1.0, 3.0, {}),
        a: (2, 2, 1.0, 2.0, {SIM: (1, 1, 0.5, 1.0), b: (1, 1, 0.5, 1.0)}),
        b: (1, 1, 1.0, 2.0, {a: (1, 1, 1.0, 2.0)}),
    }
    folded = layers.fold(stats, REPRO, BENCH)
    assert sum(e["self_s"] for e in folded.values()) == pytest.approx(3.0)
    assert sum(shares(folded).values()) == pytest.approx(1.0)


def test_real_profile_of_a_simulation_folds_completely():
    import repro
    from repro import Cluster, measure_one_way

    profiler = cProfile.Profile()
    profiler.enable()
    measure_one_way(Cluster(n_nodes=2), 0, repeats=2, warmup=1)
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    folded = layers.fold(stats, os.path.dirname(repro.__file__),
                         os.path.dirname(layers.__file__))
    total_tt = sum(stat[2] for stat in stats.values())
    assert sum(e["self_s"] for e in folded.values()) == \
        pytest.approx(total_tt)
    assert sum(shares(folded).values()) == pytest.approx(1.0)
    for layer in ("sim", "hw", "firmware", "kernel", "bcl", "cluster"):
        assert folded[layer]["calls"] > 0, layer
