"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment
from tests.reference_paths import any_of


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=5.0)
    assert env.now == 5.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(3.5)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [3.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1.0)


def test_timeout_at_a_past_instant_rejected():
    env = Environment(initial_time=2.0)
    with pytest.raises(SimulationError):
        env.timeout_at(1.0)
    fired = env.timeout_at(2.0)
    env.run()
    assert fired.processed and env.now == 2.0


def test_timeout_value_is_delivered():
    env = Environment()
    got = []

    def proc():
        value = yield env.timeout(1.0, value="hello")
        got.append(value)

    env.process(proc())
    env.run()
    assert got == ["hello"]


def test_sequential_timeouts_accumulate():
    env = Environment()
    times = []

    def proc():
        for _ in range(4):
            yield env.timeout(2.0)
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == [2.0, 4.0, 6.0, 8.0]


def test_two_processes_interleave_deterministically():
    env = Environment()
    order = []

    def proc(name, delay):
        for _ in range(3):
            yield env.timeout(delay)
            order.append((name, env.now))

    env.process(proc("a", 1.0))
    env.process(proc("b", 1.5))
    env.run()
    # At t=3.0 both fire; b's timeout was created first (at t=1.5), so the
    # creation-order tiebreak resumes b before a.
    assert order == [
        ("a", 1.0), ("b", 1.5), ("a", 2.0), ("b", 3.0), ("a", 3.0),
        ("b", 4.5),
    ]


def test_tie_broken_by_creation_order():
    env = Environment()
    order = []

    def proc(name):
        yield env.timeout(1.0)
        order.append(name)

    env.process(proc("first"))
    env.process(proc("second"))
    env.run()
    assert order == ["first", "second"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_raises():
    env = Environment(initial_time=10.0)
    with pytest.raises(SimulationError):
        env.run(until=5.0)


def test_run_until_event_returns_value():
    env = Environment()

    def proc():
        yield env.timeout(2.0)
        return 42

    p = env.process(proc())
    assert env.run(until=p) == 42
    assert env.now == 2.0


def test_process_waits_on_other_process():
    env = Environment()
    log = []

    def worker():
        yield env.timeout(5.0)
        return "done"

    def waiter(w):
        result = yield w
        log.append((env.now, result))

    w = env.process(worker())
    env.process(waiter(w))
    env.run()
    assert log == [(5.0, "done")]


def test_waiting_on_finished_process_resumes_immediately():
    env = Environment()
    log = []

    def worker():
        yield env.timeout(1.0)
        return "early"

    def waiter(w):
        yield env.timeout(10.0)
        result = yield w
        log.append((env.now, result))

    w = env.process(worker())
    env.process(waiter(w))
    env.run()
    assert log == [(10.0, "early")]


def test_exception_in_process_propagates_to_run():
    env = Environment()

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    env.process(bad())
    with pytest.raises(ValueError, match="boom"):
        env.run()


def test_exception_caught_by_waiting_process():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("boom")

    def waiter(b):
        try:
            yield b
        except ValueError as exc:
            caught.append(str(exc))

    b = env.process(bad())
    env.process(waiter(b))
    env.run()
    assert caught == ["boom"]


def test_yield_non_event_fails_process():
    env = Environment()

    def bad():
        yield 42

    env.process(bad())
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_event_succeed_wakes_waiter():
    env = Environment()
    log = []
    gate = env.event()

    def opener():
        yield env.timeout(3.0)
        gate.succeed("open")

    def waiter():
        value = yield gate
        log.append((env.now, value))

    env.process(opener())
    env.process(waiter())
    env.run()
    assert log == [(3.0, "open")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")


def test_all_of_waits_for_slowest():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(1.0, value="a")
        t2 = env.timeout(4.0, value="b")
        results = yield env.all_of([t1, t2])
        log.append((env.now, sorted(results.values())))

    env.process(proc())
    env.run()
    assert log == [(4.0, ["a", "b"])]


def test_any_of_fires_on_fastest():
    env = Environment()
    log = []

    def proc():
        t1 = env.timeout(1.0, value="fast")
        t2 = env.timeout(4.0, value="slow")
        results = yield any_of(env, [t1, t2])
        log.append((env.now, list(results.values())))

    env.process(proc())
    env.run()
    assert log == [(1.0, ["fast"])]


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(7.0)

    env.process(proc())
    assert env.peek() == 0.0  # the Initialize event
    env.step()
    assert env.peek() == 7.0


def test_step_with_empty_calendar_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_horizon_with_drained_calendar_advances_clock():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    env.run(until=50.0)
    assert env.now == 50.0


def test_process_return_value_via_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        return {"answer": 7}

    p = env.process(proc())
    assert env.run(until=p) == {"answer": 7}


def test_nested_process_chains():
    env = Environment()

    def leaf(n):
        yield env.timeout(float(n))
        return n * 10

    def trunk():
        total = 0
        for n in range(1, 4):
            total += yield env.process(leaf(n))
        return total

    p = env.process(trunk())
    assert env.run(until=p) == 60
    assert env.now == 6.0


def test_non_generator_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.process(lambda: None)  # type: ignore[arg-type]


def test_all_of_propagates_failure():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter(b):
        t = env.timeout(5.0)
        try:
            yield env.all_of([t, b])
        except ValueError as exc:
            caught.append((env.now, str(exc)))

    b = env.process(bad())
    env.process(waiter(b))
    env.run()
    assert caught == [(1.0, "inner")]


def test_any_of_with_already_processed_event():
    env = Environment()
    log = []

    def early():
        yield env.timeout(1.0)
        return "early"

    def waiter(e):
        yield env.timeout(5.0)  # e finishes long before
        results = yield any_of(env, [e, env.timeout(100.0)])
        log.append((env.now, list(results.values())))

    e = env.process(early())
    env.process(waiter(e))
    env.run(until=10.0)
    assert log == [(5.0, ["early"])]


def test_empty_all_of_fires_immediately():
    env = Environment()
    log = []

    def waiter():
        yield env.all_of([])
        log.append(env.now)

    env.process(waiter())
    env.run()
    assert log == [0.0]


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value
    with pytest.raises(SimulationError):
        _ = ev.ok


def test_deterministic_schedule_with_many_processes():
    """Two identical environments step through identical schedules."""
    def build():
        env = Environment()
        trace = []

        def worker(name, period):
            for _ in range(5):
                yield env.timeout(period)
                trace.append((name, env.now))

        for i in range(10):
            env.process(worker(i, 0.1 + 0.01 * i))
        env.run()
        return trace

    assert build() == build()


# -- Environment.start, silent completion, succeed_all ----------------------


def test_start_runs_the_first_segment_inside_the_caller():
    env = Environment()
    log = []

    def child():
        log.append("child first segment")
        yield env.timeout(1.0)
        log.append("child done")

    env.start(child())
    log.append("after start")
    assert env.peek() == 1.0  # no Initialize hop on the calendar
    env.run()
    assert log == ["child first segment", "after start", "child done"]


def test_unobserved_process_completion_schedules_nothing():
    env = Environment()
    trace = []
    env._trace = trace

    def quiet():
        yield env.timeout(1.0)
        return 42

    proc = env.process(quiet())
    env.run()
    # Initialize + Timeout; the termination has no listener, so it is
    # marked processed on the spot instead of taking a calendar entry.
    assert [name for _t, name in trace] == ["Initialize", "Timeout"]
    assert proc.processed and proc.value == 42

    def late_waiter():
        value = yield proc  # already processed: value comes straight back
        trace.append(value)

    env.process(late_waiter())
    env.run()
    assert trace[-1] == 42


def test_observed_and_failed_completions_still_use_the_calendar():
    env = Environment()

    def child():
        yield env.timeout(1.0)
        return "done"

    def parent(proc):
        result = yield proc
        assert result == "done"

    env.process(parent(env.process(child())))
    env.run()

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("unhandled")

    env.start(crasher())  # nobody listens, yet the failure must surface
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_succeed_all_resumes_waiters_in_order_behind_one_entry():
    env = Environment()
    order = []

    def waiter(name, event):
        value = yield event
        order.append((name, value, env.now))

    events = [env.event() for _ in range(4)]
    for i, event in enumerate(events):
        env.process(waiter(i, event))
    env.run()
    trace = []
    env._trace = trace
    env.succeed_all(events, ["a", "b", "c", "d"])
    assert not any(event.triggered for event in events)
    env.run()
    assert order == [(0, "a", 0.0), (1, "b", 0.0), (2, "c", 0.0),
                     (3, "d", 0.0)]
    assert len(trace) == 1
    with pytest.raises(SimulationError):
        env.succeed_all(events[:2], ["only one"])
