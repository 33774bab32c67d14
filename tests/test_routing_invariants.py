"""Routing invariants, enforced for every topology builder.

Every precomputed source route must (a) consume only ports within the
radix of the switch it is consumed at, (b) follow physically wired
links hop by hop, and (c) eject at the destination's host port on its
final hop.  Fat-tree routes must additionally be up*/down* (never
descend a level and climb again — the structure that makes the Clos
deadlock-free), and ECMP selection must be a pure function of
``(src, dst, ecmp_seed)``.

``build_network`` walks every route at build time when
``cfg.strict_routes`` (the default), so a buggy builder fails fast
instead of bleeding ``Switch.route_errors`` at forwarding time.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import DAWNING_3000
from repro.hw.network import build_network
from repro.sim import Environment

TOPOLOGY_SIZES = [
    ("single_switch", 1), ("single_switch", 2), ("single_switch", 9),
    ("switch_tree", 1), ("switch_tree", 7), ("switch_tree", 8),
    ("switch_tree", 20),
    ("mesh2d", 1), ("mesh2d", 4), ("mesh2d", 9), ("mesh2d", 12),
    ("fat_tree", 2), ("fat_tree", 4), ("fat_tree", 16), ("fat_tree", 17),
    ("fat_tree", 54), ("fat_tree", 60),
]


def _net(topology, n, cfg=DAWNING_3000):
    return build_network(Environment(), cfg, n, topology=topology)


@pytest.mark.parametrize("topology,n", TOPOLOGY_SIZES)
def test_every_route_walks_the_wired_fabric(topology, n):
    """walk_route() — radix, wiring, and host termination combined."""
    net = _net(topology, n)
    assert np.count_nonzero(net.route_lengths) == n * (n - 1)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            steps = net.walk_route(src, dst)
            assert len(steps) == len(net.route(src, dst))
            # Final step must eject exactly at dst's host port.
            assert net.port_map[steps[-1]] == ("host", dst)
            for sw_name, port in steps:
                sw = net._switch_by_name[sw_name]
                assert 0 <= port < sw.n_ports


@pytest.mark.parametrize("n", [4, 16, 17, 54, 60])
def test_fat_tree_routes_never_go_down_then_up(n):
    """Level sequence along any route climbs, then only descends."""
    net = _net("fat_tree", n)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            levels = [net.switch_level[sw]
                      for sw, _ in net.walk_route(src, dst)]
            descending = False
            for prev, cur in zip(levels, levels[1:]):
                if cur < prev:
                    descending = True
                elif cur > prev:
                    assert not descending, (
                        f"route {src}->{dst} climbs again after "
                        f"descending: levels {levels}")


def test_ecmp_choice_is_pure_function_of_flow_and_seed():
    a = _net("fat_tree", 16)
    b = _net("fat_tree", 16)
    assert np.array_equal(a.route_ports, b.route_ports)
    reseeded = _net("fat_tree", 16, DAWNING_3000.replace(ecmp_seed=99))
    assert np.array_equal(a.route_lengths, reseeded.route_lengths)


def test_out_of_radix_route_rejected_at_validation_time():
    net = _net("fat_tree", 16)
    net.set_route(0, 5, (255,) + net.route(0, 5)[1:])   # radix is 4
    with pytest.raises(ValueError, match="outside .*radix"):
        net.validate_routes()


def test_unwired_port_rejected_at_validation_time():
    """A port inside the radix but with no cable on it."""
    net = _net("switch_tree", 20)
    # leaf0 port 5 is within radix 8 but hosts only 0-6 on 0-6 + uplink
    # on 7 exist; with 20 hosts leaf2 has ports 6 unwired.
    net.set_route(0, 1, (5, 1))
    with pytest.raises(ValueError, match="not wired|ejects"):
        net.validate_routes()


def test_dead_end_port_stops_the_table_walk():
    """A route through an uncabled port is rejected even when its later
    ports would spell a valid path from some other switch."""
    net = _net("mesh2d", 3)     # 2x2 grid: mesh0_0's north port is bare
    net.set_route(0, 2, (0, 3, 4))
    assert net.invalid_routes()[0, 2]
    with pytest.raises(ValueError, match="mesh0_0 port 0 is not wired"):
        net.validate_routes()


def test_route_must_terminate_at_destination():
    net = _net("single_switch", 4)
    net.set_route(0, 1, (2,))           # ejects at host 2, not 1
    with pytest.raises(ValueError, match="ejects at host 2"):
        net.validate_routes()


def test_truncated_route_rejected():
    net = _net("fat_tree", 16)
    net.set_route(0, 15, net.route(0, 15)[:-1])
    with pytest.raises(ValueError, match="not at node"):
        net.validate_routes()


def _walk_rejects(net) -> set:
    rejected = set()
    for src in range(net.n_nodes):
        for dst in range(net.n_nodes):
            if src == dst:
                continue
            try:
                net.walk_route(src, dst)
            except ValueError:
                rejected.add((src, dst))
    return rejected


_CORRUPTION = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                        st.booleans(), st.integers(0, 10**6),
                        st.integers(0, 9))


@pytest.mark.parametrize("topology,n", [("fat_tree", 60), ("mesh2d", 12)])
@settings(max_examples=30)
@given(corruptions=st.lists(_CORRUPTION, min_size=1, max_size=12))
def test_table_walk_agrees_with_walk_route(topology, n, corruptions):
    """Differential: the all-pairs table walk flags exactly the pairs
    whose scalar ``walk_route`` raises, for random corrupted entries
    (a port overwritten with a value up to past the radix, or a length
    cut or stretched)."""
    net = _net(topology, n)
    width = net.route_ports.shape[2]
    for a, b, is_length, hop, value in corruptions:
        src, dst = a % n, b % n
        if is_length:
            net.route_lengths[src, dst] = value % (width + 1)
        else:
            net.route_ports[src, dst, hop % width] = value
    flagged = set(zip(*map(np.ndarray.tolist,
                           np.nonzero(net.invalid_routes()))))
    assert flagged == _walk_rejects(net)
    if flagged:
        first = min(flagged)
        with pytest.raises(ValueError, match=f"route {first[0]}->"
                                             f"{first[1]} "):
            net.validate_routes()
    else:
        net.validate_routes()


def test_build_network_validates_when_strict():
    """The strict-mode hook runs from build_network itself (all
    builders currently pass; flipping the flag off skips the walk)."""
    lax = DAWNING_3000.replace(strict_routes=False)
    net = build_network(Environment(), lax, 9, topology="mesh2d")
    # Same fabric, unvalidated — walking it by hand still succeeds.
    net.validate_routes()
