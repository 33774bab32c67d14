"""Unit tests for Resource, Store and Wakeup."""

from __future__ import annotations

import random

import pytest

from repro.sim import (Environment, Event, Interrupt, Resource,
                       SimulationError, Store, Wakeup)


def test_resource_grants_up_to_capacity(env):
    res = Resource(env, capacity=2)
    r1, r2, r3 = res.request(), res.request(), res.request()
    env.run()
    assert r1.processed and r2.processed
    assert not r3.triggered
    assert res.count == 2
    assert res.queue_length == 1


def test_resource_fifo_handoff(env):
    res = Resource(env, capacity=1)
    order = []

    def user(name, hold):
        with res.request() as req:
            yield req
            order.append((name, env.now))
            yield env.timeout(hold)

    env.process(user("a", 10))
    env.process(user("b", 10))
    env.process(user("c", 10))
    env.run()
    assert order == [("a", 0), ("b", 10), ("c", 20)]


def test_resource_release_unqueued_request_is_error(env):
    res = Resource(env, capacity=1)
    other = Resource(env, capacity=1)
    req = other.request()
    env.run()
    with pytest.raises(SimulationError):
        res.release(req)


def test_resource_release_waiting_request_cancels(env):
    res = Resource(env, capacity=1)
    held = res.request()
    waiting = res.request()
    res.release(waiting)          # give up the queue slot
    assert res.queue_length == 0
    res.release(held)
    env.run()
    assert res.count == 0


def test_resource_invalid_capacity(env):
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_store_fifo_order(env):
    store = Store(env)
    for i in range(3):
        store.put(i)
    got = []

    def getter():
        for _ in range(3):
            item = yield store.get()
            got.append(item)

    env.process(getter())
    env.run()
    assert got == [0, 1, 2]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    got = []

    def getter():
        item = yield store.get()
        got.append((env.now, item))

    def putter():
        yield env.timeout(40)
        yield store.put("x")

    env.process(getter())
    env.process(putter())
    env.run()
    assert got == [(40, "x")]


def test_store_capacity_blocks_put(env):
    store = Store(env, capacity=1)
    times = []

    def putter():
        yield store.put("a")
        times.append(env.now)
        yield store.put("b")
        times.append(env.now)

    def slow_getter():
        yield env.timeout(100)
        yield store.get()

    env.process(putter())
    env.process(slow_getter())
    env.run()
    assert times == [0, 100]


def test_store_try_put_drops_on_full(env):
    store = Store(env, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert len(store) == 2


def test_store_try_put_hands_to_waiting_getter(env):
    store = Store(env, capacity=1)
    got = []

    def getter():
        item = yield store.get()
        got.append(item)

    env.process(getter())
    env.run()          # getter is now parked
    assert store.try_put("direct")
    env.run()
    assert got == ["direct"]


def test_store_try_get(env):
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None
    store.try_put(9)
    ok, item = store.try_get()
    assert ok and item == 9


def test_store_peek(env):
    store = Store(env)
    with pytest.raises(SimulationError):
        store.peek()
    store.try_put("front")
    store.try_put("back")
    assert store.peek() == "front"
    assert len(store) == 2


def test_store_put_releases_blocked_putter_on_get(env):
    store = Store(env, capacity=1)
    store.try_put("first")
    done = store.put("second")     # blocked
    env.run()
    assert not done.triggered
    ok, item = store.try_get()
    assert ok and item == "first"
    env.run()
    assert done.processed
    assert store.peek() == "second"


# ------------------------------------------------- interrupted waiters
def test_interrupted_getter_does_not_swallow_put(env):
    """Regression: a getter interrupted while blocked on get() used to
    stay in the queue; the next put() handed it the item, which was
    silently lost."""
    from repro.sim import Interrupt

    store = Store(env)
    received = []

    def doomed():
        try:
            yield store.get()
            received.append("doomed got it")
        except Interrupt:
            pass

    def survivor():
        item = yield store.get()
        received.append(item)

    victim = env.process(doomed(), name="doomed")

    def driver():
        yield env.timeout(10)
        victim.interrupt("give up")
        env.process(survivor(), name="survivor")
        yield env.timeout(10)
        store.put("payload")

    env.process(driver(), name="driver")
    env.run()
    assert received == ["payload"]
    assert store.cancelled_gets == 1
    assert len(store) == 0


def test_interrupted_putter_item_is_not_stored(env):
    """A putter interrupted while blocked on a full store must not have
    its item admitted later."""
    from repro.sim import Interrupt

    store = Store(env, capacity=1)
    store.try_put("first")

    def doomed():
        try:
            yield store.put("orphan")
        except Interrupt:
            pass

    victim = env.process(doomed(), name="doomed")

    def driver():
        yield env.timeout(10)
        victim.interrupt()
        yield env.timeout(10)
        ok, item = store.try_get()
        assert ok and item == "first"

    env.process(driver(), name="driver")
    env.run()
    assert store.cancelled_puts == 1
    assert len(store) == 0         # "orphan" was never admitted


def test_interrupted_requester_is_never_granted(env):
    """An interrupted Resource waiter leaves the queue; release() must
    grant the next live waiter, and the dead waiter's with-block
    cleanup must not raise."""
    from repro.sim import Interrupt

    res = Resource(env, capacity=1)
    holder = res.request()
    granted = []

    dead_req = []

    def doomed():
        # No with-block: nothing releases the request on interrupt, so
        # only the orphan hook can withdraw it from the wait queue.
        req = res.request()
        dead_req.append(req)
        try:
            yield req
            granted.append("doomed")
        except Interrupt:
            pass

    def survivor():
        with res.request() as req:
            yield req
            granted.append("survivor")

    victim = env.process(doomed(), name="doomed")

    def driver():
        yield env.timeout(10)
        victim.interrupt()
        env.process(survivor(), name="survivor")
        yield env.timeout(10)
        res.release(holder)

    env.process(driver(), name="driver")
    env.run()
    assert granted == ["survivor"]
    assert res.count == 0
    assert res.queue_length == 0
    res.release(dead_req[0])       # withdrawn request: release is a no-op


# ------------------------------------------------------------- Wakeup
def test_wakeup_wakes_waiters_in_join_order(env):
    wakeup = Wakeup(env)
    order = []

    def parked(name):
        yield wakeup.waiter()
        order.append((name, env.now))

    for name in "abc":
        env.process(parked(name))

    def ringer():
        yield env.timeout(5)
        wakeup.ring()

    env.process(ringer())
    env.run()
    assert order == [("a", 5), ("b", 5), ("c", 5)]
    assert wakeup.waiters() == []


def test_wakeup_ready_waiter_fires_at_once(env):
    wakeup = Wakeup(env)
    waiter = wakeup.waiter(ready=True)
    assert waiter.triggered
    assert wakeup.waiters() == []      # it never joined a ring
    env.run()
    assert waiter.processed


def test_wakeup_ring_without_waiters_is_a_noop(env):
    wakeup = Wakeup(env)
    wakeup.ring()
    assert env.peek() is None
    # A waiter parked after that ring waits for the next one.
    waiter = wakeup.waiter()
    env.run()
    assert not waiter.triggered
    wakeup.ring()
    env.run()
    assert waiter.processed
    assert env.events_processed == 2   # the ring and its one waiter


def test_wakeup_interrupted_waiter_withdraws(env):
    wakeup = Wakeup(env)

    def parked():
        try:
            yield wakeup.waiter()
        except Interrupt:
            pass

    victim = env.process(parked())

    def driver():
        yield env.timeout(10)
        assert len(wakeup.waiters()) == 1
        victim.interrupt()
        assert wakeup.waiters() == []

    env.process(driver())
    env.run()
    assert wakeup.waiters() == []


def test_wakeup_losing_any_of_constituent_withdraws(env):
    wakeup = Wakeup(env)
    won = []

    def parked():
        result = yield env.any_of([wakeup.waiter(), env.timeout(10)])
        won.append(len(result))

    env.process(parked())
    env.run()
    assert won == [1]
    assert wakeup.waiters() == []
    wakeup.ring()                      # the ring has nobody left to wake
    before = env.events_processed
    env.run()
    assert env.events_processed == before + 1


class _LambdaChain:
    """The hand-rolled wakeup chain :class:`Wakeup` replaced, kept as
    the differential reference: each waiter is a plain event, and each
    park appends ``lambda _e: ev.succeed()`` to a shared underlying
    event that nothing ever prunes."""

    def __init__(self, env):
        self.env = env
        self._wakeup = None

    def ring(self):
        if self._wakeup is not None:
            self._wakeup.succeed()
            self._wakeup = None

    def waiter(self, ready=False):
        ev = Event(self.env)
        if ready:
            ev.succeed()
            return ev
        if self._wakeup is None:
            self._wakeup = Event(self.env)
        self._wakeup.callbacks.append(lambda _e: ev.succeed())
        return ev


def _park_ring_script(seed, make_wakeup):
    """A seeded script of parks (plain, ready, or racing a timer),
    rings and interrupts; returns the resume log and the event count."""
    rng = random.Random(seed)
    env = Environment()
    wakeup = make_wakeup(env)
    log = []
    procs = []

    def parked(name, ready, race_ns):
        for round_ in range(3):
            waiter = wakeup.waiter(ready and round_ == 0)
            try:
                if race_ns is None:
                    yield waiter
                    how = "ring"
                else:
                    got = yield env.any_of([waiter, env.timeout(race_ns)])
                    how = "ring" if waiter in got else "timer"
            except Interrupt:
                log.append((name, round_, env.now, "interrupted"))
                return
            log.append((name, round_, env.now, how))

    def driver():
        for tick in range(40):
            action = rng.random()
            if action < 0.45:
                race = rng.choice([None, None, rng.randrange(1, 40)])
                procs.append(env.process(parked(
                    f"p{len(procs)}", rng.random() < 0.2, race)))
            elif action < 0.8:
                wakeup.ring()
            else:
                waiting = [p for p in procs
                           if p.is_alive and p._target is not None]
                if waiting:
                    rng.choice(waiting).interrupt()
            yield env.timeout(rng.choice([0, 1, 5, 10]))
        wakeup.ring()

    env.process(driver())
    env.run()
    return log, env.events_processed


@pytest.mark.parametrize("seed", range(25))
def test_wakeup_matches_the_lambda_chain_it_replaced(seed):
    """Same script, same resume order and times; only the no-op events
    of dead waiters disappear."""
    log, events = _park_ring_script(seed, Wakeup)
    ref_log, ref_events = _park_ring_script(seed, _LambdaChain)
    assert log == ref_log
    assert any(how == "ring" for *_, how in log)
    assert events <= ref_events
