"""Pinned regression: parking on a port's wakeups leaks nothing.

A receiver blocked between polls parks on ``any_of`` of its receive
queue's wakeup and its shared-memory wakeup.  The two wakeup chains
used to append ``lambda _e: ev.succeed()`` to a shared event on every
park, and a fired ``any_of`` never detached itself from the
constituent that lost.  On a port with no co-resident peer the shm
wakeup never rings, so every park pinned its waiter, its ``AnyOf``, the
lambda and the other loser until the end of the run — the live set the
cyclic collector walked grew with every message.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.sim.core import AnyOf, Environment
from repro.upper.job import run_spmd

ROUND_TRIPS = 500


@pytest.fixture
def fired_any_ofs(monkeypatch):
    """Record every AnyOf the run builds."""
    made = []
    any_of = Environment.any_of

    def recording(self, events):
        cond = any_of(self, events)
        made.append(cond)
        return cond

    monkeypatch.setattr(Environment, "any_of", recording)
    return made


def test_ping_pong_parks_leave_bounded_waiters(fired_any_ofs):
    cluster = Cluster(n_nodes=2)

    def ping_pong(ep):
        buf = ep.lib.proc.alloc(64)
        peer = 1 - ep.rank
        for _ in range(ROUND_TRIPS):
            if ep.rank == 0:
                yield from ep.send(peer, buf, 64)
                yield from ep.recv(peer, 0, buf, 64)
            else:
                yield from ep.recv(peer, 0, buf, 64)
                yield from ep.send(peer, buf, 64)
        return ep.port

    ports = run_spmd(cluster, 2, ping_pong, layer="eadi")
    fired = [cond for cond in fired_any_ofs if cond.triggered]
    assert len(fired) >= ROUND_TRIPS
    for cond in fired:
        assert isinstance(cond, AnyOf)
        for ev in cond.events:
            assert cond._check not in (ev.callbacks or ()), (
                f"{ev!r} still hooked to a fired {cond!r}")

    for port in ports:
        assert len(port.recv_queue._wakeup.waiters()) <= 1
        assert len(port._shm_wakeup.waiters()) <= 1
