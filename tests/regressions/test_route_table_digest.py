"""Route-table digest pin: the array route plane reproduces every route.

The digests below were recorded from the dict-of-tuples route table
that preceded the array table (networkx shortest paths for the switch
fabrics, per-pair loops for mesh2d and fat_tree).  Each digest is the
SHA-256 over every ordered pair ``src != dst`` in ``(src, dst)`` order
of one length byte followed by one byte per output port.  Any change
to a single port of any route, including every ECMP choice of the
1024-rank fat tree at two seeds, changes the digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.config import DAWNING_3000
from repro.hw.network import build_network
from repro.sim import Environment

PINNED = [
    ("fat_tree", 1024, 1,
     "f0f5a1dacff02e8f4b44a2109d2b1cec8fa6b0002e3b76ef742b13e44f1c3a24"),
    ("fat_tree", 1024, 7,
     "be0784fb16de109993bc37fcea6a30fff988620435393ddbbe222e89a7d1ca2f"),
    ("switch_tree", 20, 1,
     "b67e4561117f63fba87472402cf4460f81da32c380b0c01419b6b0f3cc83d719"),
    ("mesh2d", 12, 1,
     "bd04f5151a01d6752cc5fd88550b0aaa3c690b86dbcc6b82e8d93978c2e3a1f1"),
    ("single_switch", 9, 1,
     "96069e72d553a35a985a5b049051a4c90856124785868971af0d8de05c8c818a"),
]


def route_table_digest(net) -> str:
    """SHA-256 of ``len, ports...`` bytes per pair, in ``(src, dst)`` order."""
    n = net.n_nodes
    lengths = net.route_lengths[:, :, None]
    table = np.concatenate([lengths, net.route_ports], axis=2)
    assert table.max(initial=0) < 256
    keep = np.arange(table.shape[2]) <= lengths
    keep &= ~np.eye(n, dtype=bool)[:, :, None]
    return hashlib.sha256(table[keep].astype(np.uint8).tobytes()).hexdigest()


@pytest.mark.parametrize("topology,n,seed,digest", PINNED)
def test_route_table_digest(topology, n, seed, digest):
    net = build_network(Environment(), DAWNING_3000.replace(ecmp_seed=seed),
                        n, topology=topology)
    assert route_table_digest(net) == digest


def test_digest_matches_per_pair_routes():
    """The array digest encodes exactly what ``route()`` hands out."""
    net = build_network(Environment(), DAWNING_3000, 20,
                        topology="switch_tree")
    h = hashlib.sha256()
    for src in range(20):
        for dst in range(20):
            if src != dst:
                route = net.route(src, dst)
                h.update(bytes((len(route),) + route))
    assert h.hexdigest() == route_table_digest(net) == PINNED[2][3]
