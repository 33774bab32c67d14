"""Topology construction and source-route computation.

DAWNING-3000's system area network is either Myrinet (8-port switches)
or the custom nwrc 2-D mesh; both are source-routed cut-through
fabrics.  :func:`build_network` assembles NIC-facing link endpoints,
switches and inter-switch links for several topologies and precomputes
the source route (sequence of switch output ports) for every ordered
node pair into one array route table: ``route_ports[src, dst]`` holds
the ports, one small unsigned integer per hop, and
``route_lengths[src, dst]`` how many of them the route uses.  The
crossbar, tree and fat-tree builders fill the table in closed form from
their port conventions; the mesh writes its dimension-order walks.

Topologies:

* ``single_switch`` — all nodes on one crossbar (grown to the needed
  radix); the calibration topology, 2 links + 1 switch per path.
* ``switch_tree`` — 8-port leaf switches (7 hosts + 1 uplink) under a
  root switch, like a small DAWNING Myrinet installation.
* ``mesh2d`` — a 2-D grid of 5-port routing chips (N/S/E/W/host) with
  XY dimension-order routing, standing in for the nwrc mesh.
* ``fat_tree`` — a k-ary 3-level Clos (k pods of k/2 edge + k/2
  aggregation switches, (k/2)^2 cores; up to k^3/4 hosts) with
  source-routed up/down paths and deterministic-seeded ECMP selection
  among the equal-cost uplinks.  The scale-out fabric: thousand-rank
  clusters at 16-port radix.

Every route is validated against switch radix and physical
connectivity at build time (``cfg.strict_routes``), so a topology
builder emitting an out-of-radix or dead port fails fast instead of
silently dropping packets at forwarding time.  The check walks all
pairs at once over a ``next_hop[switch, port]`` array.
"""

from __future__ import annotations

import math
import struct
import zlib
from typing import Callable, Iterable, Optional

import numpy as np

from repro.config import CostModel
from repro.firmware.packet import Packet
from repro.hw.link import Link, LinkEndpoint
from repro.hw.switch import Switch
from repro.sim import Environment

__all__ = ["Network", "build_network"]

FaultInjector = Callable[[Packet], Optional[Packet]]

#: ``next_hop`` entry for a port with no cable on it; host ``h`` is
#: encoded as ``_HOST - h`` and switch ``i`` as ``i``
_UNWIRED = -1
_HOST = -2


class Network:
    """A built fabric: per-node attach endpoints plus a route table."""

    def __init__(self, env: Environment, cfg: CostModel, n_nodes: int,
                 topology: str):
        self.env = env
        self.cfg = cfg
        self.n_nodes = n_nodes
        self.topology = topology
        self.switches: list[Switch] = []
        self.links: list[Link] = []
        #: endpoint the node's NIC transmits/receives on, per node id
        self.nic_endpoints: dict[int, LinkEndpoint] = {}
        #: source routes: ``route_ports[src, dst, :route_lengths[src, dst]]``
        #: are the switch output ports from node src to node dst
        self.route_ports = np.zeros((n_nodes, n_nodes, 0), np.uint8)
        self.route_lengths = np.zeros((n_nodes, n_nodes), np.uint8)
        self._route_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        #: physical wiring: (switch name, port) -> ("sw", name) | ("host", n)
        self.port_map: dict[tuple[str, int], tuple] = {}
        #: node id -> (switch name, port) its NIC link lands on
        self.host_attach: dict[int, tuple[str, int]] = {}
        #: switch name -> tree level (fat_tree: 0=edge 1=agg 2=core)
        self.switch_level: dict[str, int] = {}
        #: topology parameters (fat_tree: k, pods, ...)
        self.meta: dict = {}
        self._switch_by_name: dict[str, Switch] = {}

    def register_metrics(self, registry) -> None:
        """Register every link's and switch's tallies (observation only)."""
        for link in self.links:
            link.register_metrics(registry)
        for switch in self.switches:
            registry.register_callback(
                "repro_switch_packets_forwarded_total",
                lambda sw=switch: sw.packets_forwarded,
                kind="counter", switch=switch.name)
            registry.register_callback(
                "repro_switch_route_errors_total",
                lambda sw=switch: sw.route_errors,
                kind="counter", switch=switch.name)

    def route(self, src: int, dst: int) -> tuple[int, ...]:
        """Source route (switch output ports) from node src to node dst."""
        try:
            return self._route_cache[(src, dst)]
        except KeyError:
            pass
        if src == dst:
            raise ValueError(f"no network route from node {src} to itself")
        if not (0 <= src < self.n_nodes and 0 <= dst < self.n_nodes):
            raise ValueError(f"no route from node {src} to node {dst}")
        length = self.route_lengths[src, dst]
        route = tuple(self.route_ports[src, dst, :length].tolist())
        self._route_cache[(src, dst)] = route
        return route

    def set_route(self, src: int, dst: int, ports: Iterable[int]) -> None:
        """Overwrite the route from src to dst in the table.

        The route must fit the table: at most ``route_ports.shape[2]``
        ports, each within ``route_ports.dtype``.  Nothing else is
        checked here: call :meth:`validate_routes` after.
        """
        ports = tuple(ports)
        self.route_ports[src, dst] = 0
        self.route_ports[src, dst, :len(ports)] = ports
        self.route_lengths[src, dst] = len(ports)
        self._route_cache.pop((src, dst), None)

    def hops(self, src: int, dst: int) -> int:
        """Number of switches on the path."""
        return len(self.route(src, dst))

    def walk_route(self, src: int, dst: int) -> list[tuple[str, int]]:
        """The (switch name, output port) sequence a packet traverses.

        Raises :class:`ValueError` if the route leaves the wired fabric
        at any hop or does not terminate at ``dst``'s host port — the
        per-route form of :meth:`validate_routes`.
        """
        route = self.route(src, dst)
        here = self.host_attach.get(src)
        if here is None:
            raise ValueError(f"node {src} is not attached to the fabric")
        sw_name = here[0]
        steps: list[tuple[str, int]] = []
        for hop, port in enumerate(route):
            sw = self._switch_by_name[sw_name]
            if not 0 <= port < sw.n_ports:
                raise ValueError(
                    f"route {src}->{dst} hop {hop}: port {port} is outside "
                    f"{sw_name}'s radix {sw.n_ports}")
            target = self.port_map.get((sw_name, port))
            if target is None:
                raise ValueError(
                    f"route {src}->{dst} hop {hop}: {sw_name} port {port} "
                    f"is not wired")
            steps.append((sw_name, port))
            if target[0] == "host":
                if hop != len(route) - 1 or target[1] != dst:
                    raise ValueError(
                        f"route {src}->{dst} hop {hop}: ejects at host "
                        f"{target[1]} with {len(route) - 1 - hop} port(s) "
                        f"left")
                return steps
            sw_name = target[1]
        raise ValueError(
            f"route {src}->{dst} ends at switch {sw_name}, not at node "
            f"{dst}'s host port")

    def invalid_routes(self) -> np.ndarray:
        """``(n, n)`` mask of the ordered pairs :meth:`walk_route` rejects.

        Walks every route in the table at once, hop by hop, over a
        ``next_hop[switch, port]`` array built from :attr:`port_map`.
        A pair is valid when each port is within the radix of the
        switch it is consumed at, each hop lands on a wired port, and
        the walk ejects at a host only on the last hop, at ``dst``.
        The diagonal (no route to oneself) is never flagged.
        """
        n = self.n_nodes
        index = {sw.name: i for i, sw in enumerate(self.switches)}
        radix = np.array([sw.n_ports for sw in self.switches], np.int32)
        next_hop = np.full((len(self.switches), radix.max(initial=1)),
                           _UNWIRED, np.int32)
        for (name, port), (kind, target) in self.port_map.items():
            next_hop[index[name], port] = (
                index[target] if kind == "sw" else _HOST - target)
        attach = np.full(n, _UNWIRED, np.int32)
        for node, (name, _) in self.host_attach.items():
            attach[node] = index[name]
        here = np.repeat(attach, n)          # current switch, per pair
        lengths = self.route_lengths.ravel()
        ports = self.route_ports.reshape(n * n, self.route_ports.shape[2])
        dst = np.tile(np.arange(n, dtype=np.int32), n)
        walking = here != _UNWIRED
        delivered = np.zeros(n * n, bool)
        for hop in range(ports.shape[1]):
            walking &= lengths > hop
            if not walking.any():
                break
            sw = np.where(walking, here, 0)
            port = ports[:, hop]
            in_radix = (port >= 0) & (port < radix[sw])
            target = next_hop[sw, np.where(in_radix, port, 0)]
            walking &= in_radix & (target != _UNWIRED)
            ejects = walking & (target <= _HOST)
            delivered |= (ejects & (lengths == hop + 1)
                          & (_HOST - target == dst))
            walking &= ~ejects
            here = target
        invalid = ~delivered.reshape(n, n)
        np.fill_diagonal(invalid, False)
        return invalid

    def validate_routes(self) -> None:
        """Walk every route in the table through the wired fabric.

        Checks, for each ordered ``(src, dst)`` pair: every port index
        is within the radix of the switch it is consumed at, every hop
        lands on a physically connected link, and the final hop ejects
        at ``dst``'s host port.  Raises :class:`ValueError` naming the
        first offending route in ``(src, dst)`` order (the message of
        :meth:`walk_route`) — topology-builder bugs fail at
        :func:`build_network` time instead of as silent
        ``Switch.route_errors`` drops.
        """
        invalid = self.invalid_routes()
        if not invalid.any():
            return
        src, dst = divmod(int(np.argmax(invalid)), self.n_nodes)
        self.walk_route(src, dst)
        raise RuntimeError(f"route {src}->{dst} failed the table walk but "
                           f"not walk_route")

    # -- construction helpers (used by build_network) -------------------
    def _add_link(self, name: str,
                  fault_injector: Optional[FaultInjector] = None) -> Link:
        link = Link(self.env, self.cfg, name, fault_injector)
        self.links.append(link)
        return link

    def _add_switch(self, name: str, n_ports: int, level: int = 0) -> Switch:
        sw = Switch(self.env, self.cfg, name, n_ports)
        self.switches.append(sw)
        self._switch_by_name[name] = sw
        self.switch_level[name] = level
        return sw

    def _alloc_routes(self, width: int) -> None:
        """Allocate an empty table for routes of up to ``width`` hops.

        Ports are stored one byte each while every switch radix fits in
        a byte.
        """
        n = self.n_nodes
        radix = max(sw.n_ports for sw in self.switches)
        self.route_ports = np.zeros((n, n, width),
                                    np.min_scalar_type(radix - 1))
        self.route_lengths = np.zeros((n, n), np.min_scalar_type(width))

    def _fill_routes(self, by_hop: list, lengths: np.ndarray) -> None:
        """Install a closed-form route table.

        ``by_hop[h]`` broadcasts to hop ``h``'s port for every pair (any
        value past a pair's length); ``lengths`` is ``(n, n)``.  The
        diagonal gets no route, and ports past a route's end are zero.
        """
        width = int(lengths.max(initial=0))
        self._alloc_routes(width)
        for hop, port in enumerate(by_hop[:width]):
            self.route_ports[:, :, hop] = port
        self.route_lengths[:] = lengths
        np.fill_diagonal(self.route_lengths, 0)
        past_end = np.arange(width) >= self.route_lengths[:, :, None]
        self.route_ports[past_end] = 0


def build_network(env: Environment, cfg: CostModel, n_nodes: int,
                  topology: str = "single_switch",
                  fault_injector: Optional[FaultInjector] = None) -> Network:
    """Build a fabric for ``n_nodes`` nodes.

    ``fault_injector``, if given, is installed on every link (packet ->
    packet | corrupted packet | None-to-drop); the reliability tests use
    it to exercise retransmission.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    net = Network(env, cfg, n_nodes, topology)
    if topology == "single_switch":
        _build_single_switch(net, fault_injector)
    elif topology == "switch_tree":
        _build_switch_tree(net, fault_injector)
    elif topology == "mesh2d":
        _build_mesh2d(net, fault_injector)
    elif topology == "fat_tree":
        _build_fat_tree(net, fault_injector)
    else:
        raise ValueError(f"unknown topology {topology!r}")
    if cfg.strict_routes:
        net.validate_routes()
    return net


def _host_link(net: Network, node: int, sw: Switch, port: int,
               fault_injector: Optional[FaultInjector]) -> None:
    link = net._add_link(f"link.h{node}-{sw.name}p{port}", fault_injector)
    net.nic_endpoints[node] = link.a
    sw.connect(port, link.b)
    net.port_map[(sw.name, port)] = ("host", node)
    net.host_attach[node] = (sw.name, port)


def _switch_link(net: Network, sw_a: Switch, port_a: int, sw_b: Switch,
                 port_b: int, fault_injector: Optional[FaultInjector]) -> None:
    link = net._add_link(f"link.{sw_a.name}p{port_a}-{sw_b.name}p{port_b}",
                         fault_injector)
    sw_a.connect(port_a, link.a)
    sw_b.connect(port_b, link.b)
    net.port_map[(sw_a.name, port_a)] = ("sw", sw_b.name)
    net.port_map[(sw_b.name, port_b)] = ("sw", sw_a.name)


def _build_single_switch(net: Network,
                         fault_injector: Optional[FaultInjector]) -> None:
    """One crossbar: the route to ``dst`` is its port, ``(dst,)``."""
    n = net.n_nodes
    sw = net._add_switch("sw0", n_ports=max(2, n))
    for node in range(n):
        _host_link(net, node, sw, node, fault_injector)
    net._fill_routes([np.arange(n)[None, :]], np.ones((n, n), np.uint8))


def _build_switch_tree(net: Network,
                       fault_injector: Optional[FaultInjector]) -> None:
    """8-port leaves (7 hosts + uplink on port 7) under one root.

    Routes within a leaf are ``(local_d,)``; across leaves they climb
    the uplink and come down: ``(7, leaf_d, local_d)``.

    With a single leaf (``n_nodes <= 7``) the root and its uplink would
    carry no routes — a dead switch polluting ``switches``/``links``
    (and every per-switch telemetry callback), so the degenerate tree
    collapses to just the leaf crossbar.
    """
    n = net.n_nodes
    hosts_per_leaf = 7
    n_leaves = max(1, math.ceil(n / hosts_per_leaf))
    root = None
    if n_leaves > 1:
        root = net._add_switch("root", n_ports=max(2, n_leaves), level=1)
    for leaf_idx in range(n_leaves):
        leaf = net._add_switch(f"leaf{leaf_idx}", n_ports=8)
        if root is not None:
            _switch_link(net, leaf, hosts_per_leaf, root, leaf_idx,
                         fault_injector)
        for local in range(hosts_per_leaf):
            node = leaf_idx * hosts_per_leaf + local
            if node >= n:
                break
            _host_link(net, node, leaf, local, fault_injector)
    leaf_of, local_of = np.divmod(np.arange(n), hosts_per_leaf)
    same_leaf = leaf_of[:, None] == leaf_of[None, :]
    net._fill_routes(
        [np.where(same_leaf, local_of[None, :], hosts_per_leaf),
         leaf_of[None, :], local_of[None, :]],
        np.where(same_leaf, 1, 3))


def _build_mesh2d(net: Network,
                  fault_injector: Optional[FaultInjector]) -> None:
    """Square-ish 2-D mesh of 5-port routers (ports: 0=N 1=S 2=E 3=W 4=host).

    Routes use XY dimension-order routing: it is also a shortest path
    on the grid, but DOR fixes *which* shortest path, as the nwrc1032
    wormhole chip does.
    """
    n = net.n_nodes
    cols = max(1, math.ceil(math.sqrt(n)))
    rows = max(1, math.ceil(n / cols))
    N_, S_, E_, W_, H_ = 0, 1, 2, 3, 4
    routers: dict[tuple[int, int], Switch] = {}
    for r in range(rows):
        for c in range(cols):
            routers[(r, c)] = net._add_switch(f"mesh{r}_{c}", n_ports=5)
    for (r, c), sw in routers.items():
        if c + 1 < cols:
            _switch_link(net, sw, E_, routers[(r, c + 1)], W_,
                         fault_injector)
        if r + 1 < rows:
            _switch_link(net, sw, S_, routers[(r + 1, c)], N_,
                         fault_injector)
    coords: dict[int, tuple[int, int]] = {}
    for node in range(n):
        r, c = divmod(node, cols)
        coords[node] = (r, c)
        _host_link(net, node, routers[(r, c)], H_, fault_injector)
    net._alloc_routes((rows - 1) + (cols - 1) + 1)
    for src in range(n):
        for dst in range(n):
            if src == dst:
                continue
            (r0, c0), (r1, c1) = coords[src], coords[dst]
            ports: list[int] = []
            c = c0
            while c != c1:          # X first
                ports.append(E_ if c1 > c else W_)
                c += 1 if c1 > c else -1
            r = r0
            while r != r1:          # then Y
                ports.append(S_ if r1 > r else N_)
                r += 1 if r1 > r else -1
            ports.append(H_)        # eject to the host port
            net.route_ports[src, dst, :len(ports)] = ports
            net.route_lengths[src, dst] = len(ports)


def _fat_tree_k(n: int, override: int) -> int:
    """The Clos arity: override, or the smallest even k with k^3/4 >= n."""
    if override:
        if override ** 3 // 4 < n:
            raise ValueError(
                f"fat_tree_k={override} holds {override ** 3 // 4} hosts, "
                f"need {n}")
        return override
    k = 2
    while k ** 3 // 4 < n:
        k += 2
    return k


_FLOW = struct.Struct("<qqq")


def _ecmp_pick(src: int, dst: int, seed: int, n_choices: int) -> int:
    """Deterministic ECMP: a stable per-flow hash over (src, dst, seed).

    CRC32 rather than Python ``hash()`` so the selection is identical
    across interpreter runs and worker processes (PYTHONHASHSEED-proof),
    which the cache-keyed experiment runner and the parity guards rely
    on.
    """
    digest = zlib.crc32(_FLOW.pack(src, dst, seed))
    return digest % n_choices


def _ecmp_digests(n: int, seed: int) -> np.ndarray:
    """``_ecmp_pick``'s CRC for every ``(src, dst)`` pair, as ``(n, n)``.

    CRC-32 is affine over equal-length inputs, so with
    ``pack(s, d, seed) = pack(s, 0, seed) ^ pack(0, d, 0) ^ pack(0, 0, 0)``
    the flow CRC is the XOR of a per-source and a per-destination CRC
    and the CRC of the zero record: 2n CRC calls instead of n^2.
    """
    zero = zlib.crc32(_FLOW.pack(0, 0, 0))
    by_src = np.array([zlib.crc32(_FLOW.pack(s, 0, seed))
                       for s in range(n)], np.uint32)
    by_dst = np.array([zlib.crc32(_FLOW.pack(0, d, 0)) ^ zero
                       for d in range(n)], np.uint32)
    return by_src[:, None] ^ by_dst[None, :]


def _build_fat_tree(net: Network,
                    fault_injector: Optional[FaultInjector]) -> None:
    """k-ary 3-level Clos with source-routed up/down paths + ECMP.

    Port conventions (all switches have radix k):

    * edge  — ports ``0..k/2-1`` face hosts; port ``k/2 + i`` goes up to
      the pod's aggregation switch ``i``;
    * agg   — port ``e`` goes down to edge ``e``; port ``k/2 + j`` goes
      up to core ``(i, j)`` where ``i`` is the agg's own index;
    * core ``(i, j)`` — port ``p`` goes down to pod ``p``'s agg ``i``.

    Hosts fill pods in order; only occupied pods (and only occupied
    edges within them) are instantiated, and the core layer is omitted
    when a single pod holds every host — the same dead-switch collapse
    the switch_tree builder applies.  Routes go up to a deterministic
    ECMP-chosen common ancestor, then down: the up*/down* structure is
    what makes fat-tree source routing deadlock-free.  Within an edge
    the route is ``(d_port,)``; within a pod ``(k/2 + a, d_edge,
    d_port)`` with ``a`` the flow hash mod ``k/2``; across pods
    ``(k/2 + a, k/2 + j, d_pod, d_edge, d_port)`` with ``(a, j)`` the
    flow hash mod ``(k/2)^2`` split by ``divmod(., k/2)``.
    """
    n = net.n_nodes
    cfg = net.cfg
    k = _fat_tree_k(n, cfg.fat_tree_k)
    half = k // 2
    pod_cap = half * half            # hosts per pod
    n_pods = math.ceil(n / pod_cap)
    net.meta.update(k=k, half=half, n_pods=n_pods, pod_capacity=pod_cap)

    def host_coords(node: int) -> tuple[int, int, int]:
        pod, m = divmod(node, pod_cap)
        edge, port = divmod(m, half)
        return pod, edge, port

    edges: dict[tuple[int, int], Switch] = {}
    aggs: dict[tuple[int, int], Switch] = {}
    cores: dict[tuple[int, int], Switch] = {}
    # Occupied edges per pod (hosts fill in order, so a contiguous prefix).
    edges_in_pod = [min(half, math.ceil((n - p * pod_cap) / half))
                    for p in range(n_pods)]
    multi_edge = n_pods > 1 or edges_in_pod[0] > 1

    for p in range(n_pods):
        for e in range(edges_in_pod[p]):
            edges[(p, e)] = net._add_switch(f"ft.p{p}.e{e}", n_ports=k,
                                            level=0)
        if multi_edge:
            for i in range(half):
                aggs[(p, i)] = net._add_switch(f"ft.p{p}.a{i}", n_ports=k,
                                               level=1)
    if n_pods > 1:
        for i in range(half):
            for j in range(half):
                cores[(i, j)] = net._add_switch(f"ft.c{i}_{j}", n_ports=k,
                                                level=2)

    # Wire: edge e's up port half+i <-> agg i's down port e.
    for (p, e), edge_sw in edges.items():
        for i in range(half):
            if (p, i) in aggs:
                _switch_link(net, edge_sw, half + i, aggs[(p, i)], e,
                             fault_injector)
    # Wire: agg (p, i)'s up port half+j <-> core (i, j)'s port p.
    for (p, i), agg_sw in aggs.items():
        for j in range(half):
            if (i, j) in cores:
                _switch_link(net, agg_sw, half + j, cores[(i, j)], p,
                             fault_injector)
    for node in range(n):
        pod, e, h = host_coords(node)
        _host_link(net, node, edges[(pod, e)], h, fault_injector)

    # Source routes: up to the ECMP-chosen common ancestor, then down.
    pod_of, rest = np.divmod(np.arange(n, dtype=np.int32), pod_cap)
    edge_of, port_of = np.divmod(rest, half)
    same_pod = pod_of[:, None] == pod_of[None, :]
    same_edge = same_pod & (edge_of[:, None] == edge_of[None, :])
    digest = _ecmp_digests(n, cfg.ecmp_seed)
    up_agg, up_core = np.divmod((digest % (half * half)).astype(np.int32),
                                half)
    up_agg[same_pod] = (digest % half)[same_pod]
    lengths = np.full((n, n), 5, np.uint8)
    lengths[same_pod] = 3
    lengths[same_edge] = 1
    d_pod, d_edge, d_port = pod_of[None, :], edge_of[None, :], port_of[None, :]
    net._fill_routes([np.where(same_edge, d_port, half + up_agg),
                      np.where(same_pod, d_edge, half + up_core),
                      np.where(same_pod, d_port, d_pod),
                      d_edge, d_port],
                     lengths)
