"""Shared-resource primitives built on the event core.

Three primitives cover everything the hardware and library models need:

* :class:`Resource` — a counted resource with FIFO waiters.  Used for
  bus ownership (PCI arbitration), DMA engines, and the NIC firmware
  processor, where at most ``capacity`` users may hold the resource.
* :class:`Store` — an unbounded-or-bounded FIFO of items with blocking
  ``get``/``put``.  Used for request rings, packet queues between
  pipeline stages, switch output ports and mailbox-style signalling.
* :class:`Wakeup` — a re-armable broadcast: every waiter parked since
  the last :meth:`~Wakeup.ring` fires on the next one.  Used for the
  user-space completion queues and the shared-memory arrival signal a
  polling process parks on.

All three survive waiter interruption: when a process blocked on
``Store.get()``/``Store.put()``, ``Resource.request()`` or a wakeup
waiter is interrupted, or the waiter loses the ``any_of`` it sits in,
the engine's orphan hook (:meth:`Event._on_orphaned`) withdraws the
dead waiter from the queue, so a later ``put()`` cannot hand an item to
a dead getter (silently losing it), a later ``release()`` cannot grant
capacity to a dead requester, and a wakeup that never rings does not
pin its dead waiters.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.sim.core import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "Wakeup"]


class _Request(Event):
    """Event granted when the resource is acquired."""

    __slots__ = ("resource", "_withdrawn")

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        self._withdrawn = False

    # Context-manager sugar so callers can write::
    #
    #     with bus.request() as req:
    #         yield req
    #         ...
    #
    # and the resource is released on exit even if the body raises.
    def __enter__(self) -> "_Request":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.resource.release(self)

    def _on_orphaned(self) -> None:
        # The waiting process died before the grant: leave the queue so
        # a later release cannot give the resource to a dead requester.
        queue = self.resource._queue
        if self in queue:
            queue.remove(self)
            self._withdrawn = True


class Resource:
    """Counted resource with strictly FIFO grant order."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._users: set[_Request] = set()
        self._queue: deque[_Request] = deque()
        audit = getattr(env, "_audit", None)
        if audit is not None:
            audit.register_resource(self)

    @property
    def count(self) -> int:
        """Number of current holders."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> _Request:
        req = _Request(self)
        if len(self._users) < self.capacity:
            self._users.add(req)
            req.succeed()
        else:
            self._queue.append(req)
        return req

    def release(self, request: _Request) -> None:
        if request in self._users:
            self._users.remove(request)
        elif request in self._queue:
            # Released before it was ever granted (e.g. the waiter was
            # interrupted): just drop it from the wait queue.
            self._queue.remove(request)
            return
        elif request._withdrawn:
            # Already withdrawn by the interrupt orphan hook; releasing
            # again (cleanup paths, ``with`` exits) is a no-op.
            return
        else:
            raise SimulationError("releasing a request this resource never granted")
        if self._queue and len(self._users) < self.capacity:
            nxt = self._queue.popleft()
            self._users.add(nxt)
            nxt.succeed()


class _StoreGet(Event):
    """A blocked getter; withdraws itself if its waiter is interrupted."""

    __slots__ = ("store",)

    def __init__(self, store: "Store"):
        super().__init__(store.env)
        self.store = store

    def _on_orphaned(self) -> None:
        getters = self.store._getters
        if self in getters:
            getters.remove(self)
            self.store.cancelled_gets += 1


class _StorePut(Event):
    """A blocked putter (store full); withdraws itself on interrupt."""

    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.env)
        self.store = store
        self.item = item

    def _on_orphaned(self) -> None:
        putters = self.store._putters
        if self in putters:
            putters.remove(self)
            self.store.cancelled_puts += 1


class Store:
    """FIFO item store with blocking get and (optionally) blocking put."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise SimulationError(f"capacity must be >= 1 or None, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[_StoreGet] = deque()
        self._putters: deque[_StorePut] = deque()
        #: waiters withdrawn because their process was interrupted
        self.cancelled_gets = 0
        self.cancelled_puts = 0
        audit = getattr(env, "_audit", None)
        if audit is not None:
            audit.register_store(self)

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return self.capacity is not None and len(self._items) >= self.capacity

    def put(self, item: Any) -> Event:
        """Insert ``item``; the returned event fires once it is stored."""
        if self._getters:
            # Hand straight to the longest-waiting getter.
            getter = self._getters.popleft()
            getter.succeed(item)
        elif not self.is_full:
            self._items.append(item)
        else:
            put_ev = _StorePut(self, item)
            self._putters.append(put_ev)
            return put_ev
        done = Event(self.env)
        done.succeed()
        return done

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False (drops) when the store is full.

        This models hardware FIFOs that discard on overflow, e.g. the
        BCL system-channel buffer pool ("the incoming message will be
        discarded if there is no free buffer in the pool").
        """
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.is_full:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Remove and return the oldest item (blocking)."""
        if self._items:
            ev = Event(self.env)
            ev.succeed(self._items.popleft())
            self._admit_putter()
            return ev
        getter = _StoreGet(self)
        self._getters.append(getter)
        return getter

    def try_get(self) -> tuple[bool, Any]:
        """Non-blocking get; returns ``(ok, item_or_None)``."""
        if self._items:
            item = self._items.popleft()
            self._admit_putter()
            return True, item
        return False, None

    def peek(self) -> Any:
        if not self._items:
            raise SimulationError("peek on empty store")
        return self._items[0]

    def _admit_putter(self) -> None:
        if self._putters and not self.is_full:
            put_ev = self._putters.popleft()
            self._items.append(put_ev.item)
            put_ev.succeed()


class _WakeupWaiter(Event):
    """One parked waiter; withdraws itself from its ring when orphaned."""

    __slots__ = ("_waiters",)

    def __init__(self, env: Environment):
        super().__init__(env)
        #: the join-ordered waiter dict of the ring this waiter joined
        self._waiters: Optional[dict] = None

    def _on_orphaned(self) -> None:
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            waiters.pop(self, None)


class _Ring(Event):
    """The underlying event of one wakeup generation; owns its waiters."""

    __slots__ = ("waiters",)

    def __init__(self, env: Environment):
        super().__init__(env)
        self.waiters: dict[_WakeupWaiter, None] = {}
        # A module-level callback, not a bound method: no ring->ring
        # reference cycle for the collector to find.
        self._callbacks = [_wake_waiters]


def _wake_waiters(ring: _Ring) -> None:
    waiters = ring.waiters
    for waiter in waiters:
        waiter.succeed()
    # Drop the dict->waiter references (each waiter still points at the
    # dict), so no cycle outlives the wake.
    waiters.clear()


class Wakeup:
    """Re-armable broadcast wakeup with withdrawable waiters.

    :meth:`waiter` returns an event that fires on the next
    :meth:`ring`.  Waiters parked between two rings share one underlying
    event; when that event is processed it succeeds them in join order,
    so a ring costs one event plus one per live waiter.  A waiter whose
    last callback detaches before the ring (its process was interrupted,
    or it lost the ``any_of`` it sat in) leaves the ring at once instead
    of firing later as a no-op.
    """

    def __init__(self, env: Environment):
        self.env = env
        self._ring: Optional[_Ring] = None
        audit = getattr(env, "_audit", None)
        if audit is not None:
            audit.register_wakeup(self)

    def waiters(self) -> list[Event]:
        """The waiters parked on the next ring, in join order."""
        return list(self._ring.waiters) if self._ring is not None else []

    def ring(self) -> None:
        """Wake every waiter parked since the last ring (a no-op when
        none has parked)."""
        ring = self._ring
        if ring is not None:
            self._ring = None
            ring.succeed()

    def waiter(self, ready: bool = False) -> Event:
        """An event that fires on the next :meth:`ring`.

        With ``ready`` true (the condition the caller waits for already
        holds) it fires at once, so a waiter can never sleep through a
        ring that happened before it parked.
        """
        waiter = _WakeupWaiter(self.env)
        if ready:
            return waiter.succeed()
        ring = self._ring
        if ring is None:
            ring = self._ring = _Ring(self.env)
        waiter._waiters = ring.waiters
        ring.waiters[waiter] = None
        return waiter
