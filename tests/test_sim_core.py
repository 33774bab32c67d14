"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import gc

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.sim.core import _GC_YOUNG


def test_clock_starts_at_zero(env):
    assert env.now == 0


def test_timeout_advances_clock(env):
    env.timeout(1500)
    env.run()
    assert env.now == 1500


def test_negative_timeout_rejected(env):
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_processed_in_time_order(env):
    seen = []
    for delay in (300, 100, 200):
        env.timeout(delay).callbacks.append(
            lambda _e, d=delay: seen.append(d))
    env.run()
    assert seen == [100, 200, 300]


def test_same_time_events_fifo(env):
    """Ties are broken by scheduling order — determinism guarantee."""
    seen = []
    for i in range(5):
        env.timeout(100).callbacks.append(lambda _e, i=i: seen.append(i))
    env.run()
    assert seen == [0, 1, 2, 3, 4]


def test_process_waits_on_timeout(env):
    trace = []

    def proc():
        trace.append(env.now)
        yield env.timeout(50)
        trace.append(env.now)
        yield env.timeout(70)
        trace.append(env.now)

    env.process(proc())
    env.run()
    assert trace == [0, 50, 120]


def test_process_return_value(env):
    def proc():
        yield env.timeout(10)
        return "payload"

    p = env.process(proc())
    assert env.run(until=p) == "payload"


def test_run_until_absolute_time(env):
    def proc():
        while True:
            yield env.timeout(10)

    env.process(proc())
    env.run(until=105)
    assert env.now == 105


def test_run_until_past_raises(env):
    env.timeout(10)
    env.run()
    with pytest.raises(SimulationError):
        env.run(until=5)


def test_event_succeed_value(env):
    ev = env.event()
    results = []

    def waiter():
        value = yield ev
        results.append(value)

    env.process(waiter())
    ev.succeed(42)
    env.run()
    assert results == [42]


def test_event_double_trigger_rejected(env):
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()
    env.run()


def test_event_fail_propagates_into_process(env):
    class Boom(Exception):
        pass

    ev = env.event()
    caught = []

    def waiter():
        try:
            yield ev
        except Boom as exc:
            caught.append(exc)

    env.process(waiter())
    ev.fail(Boom("x"))
    env.run()
    assert len(caught) == 1


def test_unhandled_failure_raises_at_step(env):
    class Boom(Exception):
        pass

    env.event().fail(Boom("unhandled"))
    with pytest.raises(Boom):
        env.run()


def test_process_exception_fails_its_event(env):
    def bad():
        yield env.timeout(1)
        raise ValueError("inside process")

    p = env.process(bad())
    with pytest.raises(ValueError):
        env.run(until=p)


def test_yield_non_event_is_error(env):
    def bad():
        yield 42

    p = env.process(bad())
    with pytest.raises(SimulationError):
        env.run(until=p)


def test_all_of_collects_values(env):
    t1 = env.timeout(10, value="a")
    t2 = env.timeout(20, value="b")
    result = env.run(until=env.all_of([t1, t2]))
    assert set(result.values()) == {"a", "b"}
    assert env.now == 20


def test_any_of_fires_on_first(env):
    t1 = env.timeout(10, value="fast")
    env.timeout(50, value="slow")
    env.run(until=env.any_of([t1, env.event()]))
    assert env.now == 10


def test_all_of_empty_fires_immediately(env):
    done = env.all_of([])
    env.run(until=done)
    assert env.now == 0


def _hooked(condition, event) -> bool:
    return condition._check in (event._callbacks or ())


def test_any_of_releases_its_losers_when_it_fires(env):
    """The losers keep no reference to a settled condition, and a
    queue-backed loser withdraws instead of swallowing a later item."""
    from repro.sim import Store

    store = Store(env)
    plain = env.event()
    getter = store.get()
    cond = env.any_of([env.timeout(5), plain, getter])
    env.run()
    assert cond.processed
    assert not _hooked(cond, plain) and not _hooked(cond, getter)
    assert store.cancelled_gets == 1
    store.put("kept")
    env.run()
    assert len(store) == 1


def test_failed_all_of_releases_the_rest(env):
    pending = env.event()
    bad = env.event()
    cond = env.all_of([pending, bad])
    bad.fail(ValueError("boom"))
    cond.defuse()
    env.run()
    assert not cond.ok
    assert not _hooked(cond, pending)


def test_condition_settled_at_construction_releases_later_events(env):
    """An already-processed first constituent settles the condition
    while the later ones are still being wired; they are released
    too."""
    done = env.event()
    done.succeed()
    env.run()
    later = env.event()
    cond = env.any_of([done, later])
    assert cond.triggered
    assert not _hooked(cond, later)


def test_interrupt_delivers_cause(env):
    causes = []

    def sleeper():
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            causes.append(intr.cause)

    p = env.process(sleeper())

    def interrupter():
        yield env.timeout(100)
        p.interrupt("wake up")

    env.process(interrupter())
    env.run()
    assert causes == ["wake up"]
    assert env.now == 1000  # the abandoned timeout still drains the heap


def test_interrupt_dead_process_rejected(env):
    def quick():
        yield env.timeout(1)

    p = env.process(quick())
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_peek_reports_next_event_time(env):
    assert env.peek() is None
    env.timeout(33)
    assert env.peek() == 33


def test_run_until_untriggered_event_deadlocks(env):
    ev = env.event()
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=ev)


def test_nested_process_chains(env):
    def inner():
        yield env.timeout(5)
        return 7

    def outer():
        value = yield env.process(inner())
        return value * 2

    p = env.process(outer())
    assert env.run(until=p) == 14
    assert env.now == 5


def test_already_processed_event_resumes_immediately(env):
    ev = env.event()
    ev.succeed("v")
    env.run()
    results = []

    def late_waiter():
        value = yield ev
        results.append((env.now, value))

    env.process(late_waiter())
    env.run()
    assert results == [(env.now, "v")]


# ------------------------------------------------- run-scoped GC threshold
@pytest.fixture
def gc_thresholds():
    """Restore the interpreter's GC settings whatever a test does."""
    saved, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(700, 10, 10)
    yield
    gc.set_threshold(*saved)
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _run_failing(env):
    class Boom(Exception):
        pass

    env.event().fail(Boom("unhandled"))
    with pytest.raises(Boom):
        env.run()


def _run_deadlocked(env):
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=env.event())


def _run_until_event(env):
    def proc():
        yield env.timeout(5)
        return "done"

    assert env.run(until=env.process(proc())) == "done"


def _run_dry(env):
    env.timeout(5)
    env.run()


def _seen_inside_run(scheduler):
    """``(threshold, enabled)`` as a process reads them at two points
    inside ``run()``."""
    env = Environment(scheduler=scheduler)
    seen = []

    def proc():
        seen.append((gc.get_threshold(), gc.isenabled()))
        yield env.timeout(1)
        seen.append((gc.get_threshold(), gc.isenabled()))

    env.process(proc())
    env.run()
    return seen


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_run_raises_young_gc_threshold_inside(gc_thresholds, scheduler):
    assert _seen_inside_run(scheduler) == [((_GC_YOUNG, 10, 10), True)] * 2


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
@pytest.mark.parametrize("run", [_run_dry, _run_until_event, _run_failing,
                                 _run_deadlocked])
def test_run_restores_caller_gc_threshold(gc_thresholds, scheduler, run):
    gc.set_threshold(123, 4, 5)
    run(Environment(scheduler=scheduler))
    assert gc.get_threshold() == (123, 4, 5)


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
@pytest.mark.parametrize("caller", [(_GC_YOUNG * 2, 3, 3), (0, 10, 10)],
                         ids=["higher", "zero"])
def test_run_keeps_a_higher_or_zero_caller_threshold(gc_thresholds,
                                                     scheduler, caller):
    """Threshold 0 is the other way to switch automatic collection off."""
    gc.set_threshold(*caller)
    assert _seen_inside_run(scheduler) == [(caller, True)] * 2
    assert gc.get_threshold() == caller


@pytest.mark.parametrize("scheduler", ["calendar", "heap"])
def test_run_never_enables_a_disabled_collector(gc_thresholds, scheduler):
    gc.disable()
    assert [enabled for _, enabled in _seen_inside_run(scheduler)] \
        == [False, False]
    assert not gc.isenabled()
    assert gc.get_threshold() == (700, 10, 10)
