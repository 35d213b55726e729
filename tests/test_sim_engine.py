"""Unit tests for the discrete-event simulation engine."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim import Environment
from tests.dispatch_trace import TracingEnvironment
from tests.reference_paths import HeapCalendar, any_of


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


def test_non_finite_timeouts_rejected():
    """NaN passes a ``< 0`` or ``< now`` check; neither form may put
    the clock at NaN or infinity."""
    env = Environment(initial_time=2.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SimulationError, match="not finite"):
            env.timeout(bad)
        with pytest.raises(SimulationError, match="not finite"):
            env.timeout_at(bad)
    assert env._eid == 0  # nothing was scheduled
    env.timeout(1.0)
    env.run()
    assert env.now == 3.0


def test_timeout_at_a_past_instant_rejected():
    env = Environment(initial_time=2.0)
    with pytest.raises(SimulationError):
        env.timeout_at(1.0)
    fired = env.timeout_at(2.0)
    env.run()
    assert fired.callbacks is None and env.now == 2.0


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
    env.run(until=env.timeout(25.0))
    assert env.now == 25.0


def test_run_until_past_raises():
    """``until`` is an event or None: a time, past or future, is no
    horizon and leaves the clock where it was."""
    env = Environment(initial_time=10.0)
    env.timeout(1.0)
    for horizon in (5.0, 50.0):
        with pytest.raises(SimulationError, match="Event or None"):
            env.run(until=horizon)
    assert env.now == 10.0


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


def test_waiting_on_each_event_in_turn_ends_at_the_slowest():
    env = Environment()
    log = []

    def proc():
        events = [env.timeout(4.0, value="b"), env.timeout(1.0, value="a")]
        results = []
        for event in events:
            results.append((yield event))
        log.append((env.now, results))

    env.process(proc())
    env.run()
    assert log == [(4.0, ["b", "a"])]


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


def test_step_advances_to_the_next_event_time():
    env = Environment()
    log = []

    def proc():
        yield env.timeout(7.0)
        log.append(env.now)
        yield env.timeout(1.0)

    env.process(proc())
    env.step()  # the first segment ran at spawn: this is the timeout
    assert (env.now, log) == (7.0, [7.0])
    env.step()
    assert env.now == 8.0


def test_step_with_empty_calendar_raises():
    env = Environment()
    with pytest.raises(SimulationError):
        env.step()


def test_run_until_an_event_that_never_fires_raises():
    env = Environment()

    def proc():
        yield env.timeout(1.0)

    env.process(proc())
    with pytest.raises(SimulationError, match="never fired"):
        env.run(until=env.event())
    assert env.now == 1.0  # the calendar drained; the clock stays put


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


def test_any_of_propagates_failure():
    env = Environment()
    caught = []

    def bad():
        yield env.timeout(1.0)
        raise ValueError("inner")

    def waiter(b):
        t = env.timeout(5.0)
        try:
            yield any_of(env, [t, b])
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
    env.run()
    assert log == [(5.0, ["early"])]


def test_empty_any_of_fires_immediately():
    env = Environment()
    log = []

    def waiter():
        yield any_of(env, [])
        log.append(env.now)

    env.process(waiter())
    env.run()
    assert log == [0.0]


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


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


# -- spawning, silent completion, succeed_all -------------------------------


def test_start_runs_the_first_segment_inside_the_caller():
    env = TracingEnvironment()
    log = []
    trace = env.trace

    def child():
        log.append("child first segment")
        yield env.timeout(1.0)
        log.append("child done")

    env.process(child())
    log.append("after start")
    env.run()
    assert log == ["child first segment", "after start", "child done"]
    assert trace == [(1.0, "Timeout")]  # no start-up hop on the calendar


def test_unobserved_process_completion_schedules_nothing():
    env = TracingEnvironment()
    trace = env.trace

    def quiet():
        yield env.timeout(1.0)
        return 42

    proc = env.process(quiet())
    env.run()
    # Only the Timeout: the first segment ran at spawn, and the
    # termination has no listener, so it is marked processed on the spot
    # instead of taking a calendar entry.
    assert [name for _t, name in trace] == ["Timeout"]
    assert proc.callbacks is None and proc.value == 42

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

    env.process(crasher())  # nobody listens, yet the failure must surface
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_succeed_all_resumes_waiters_in_order_behind_one_entry():
    env = TracingEnvironment()
    order = []

    def waiter(name, event):
        value = yield event
        order.append((name, value, env.now))

    events = [env.event() for _ in range(4)]
    for i, event in enumerate(events):
        env.process(waiter(i, event))
    env.run()
    env.trace = trace = []
    env.succeed_all(events, ["a", "b", "c", "d"])
    assert not any(event.triggered for event in events)
    env.run()
    assert order == [(0, "a", 0.0), (1, "b", 0.0), (2, "c", 0.0),
                     (3, "d", 0.0)]
    assert len(trace) == 1
    with pytest.raises(SimulationError):
        env.succeed_all(events[:2], ["only one"])


# -- the run queue against one plain heap -----------------------------------

_GATES = 3
#: 1e-300 is a positive delay that lands on ``now`` itself once ``now``
#: is 0.5 or more: a heap entry at ``now`` made after run-queue entries.
_DELAYS = (0.0, 1e-300, 0.5, 1.0)
_OPS = st.one_of(
    st.tuples(st.just("timeout"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("at"), st.sampled_from((0.0, 0.5, 1.0))),
    st.tuples(st.just("bare"), st.sampled_from(_DELAYS)),
    st.tuples(st.just("succeed"), st.integers(0, _GATES - 1)),
    st.tuples(st.just("wait"), st.integers(0, _GATES - 1)),
    st.tuples(st.just("succeed_all"),
              st.lists(st.integers(0, _GATES - 1), max_size=_GATES,
                       unique=True)),
    st.tuples(st.just("spawn"), st.integers(0, 3), st.booleans()),
)


def _play(env, programs):
    """Run one process per program on ``env``; each logs ``(now, tag,
    value)`` after every op.  ``at`` is ``timeout_at(now + offset)``,
    ``bare`` a timeout nobody waits on (its callback logs), ``succeed``
    and ``succeed_all`` trigger gates not yet claimed, and ``spawn``
    starts a program from inside the process, two levels deep at most,
    and joins it if asked."""
    log = []
    gates = [env.event() for _ in range(_GATES)]
    claimed = set()

    def proc(name, index, depth):
        for step, op in enumerate(programs[index]):
            kind, arg, value = op[0], op[1], None
            tag = f"{name}:{step}"
            if kind == "timeout":
                value = yield env.timeout(arg, tag)
            elif kind == "at":
                value = yield env.timeout_at(env.now + arg)
            elif kind == "bare":
                env.timeout(arg, tag).callbacks.append(
                    lambda event: log.append((env.now, "bare", event.value)))
            elif kind == "succeed" and arg not in claimed:
                claimed.add(arg)
                gates[arg].succeed(tag)
            elif kind == "wait":
                value = yield gates[arg]
            elif kind == "succeed_all":
                free = [k for k in arg if k not in claimed]
                claimed.update(free)
                env.succeed_all([gates[k] for k in free],
                                [f"{tag}/{k}" for k in free])
            elif kind == "spawn" and depth < 2:
                child = env.process(
                    proc(tag, arg % len(programs), depth + 1))
                if op[2]:
                    value = yield child
            log.append((env.now, tag, value))
        return name

    for index in range(len(programs)):
        env.process(proc(str(index), index, 0))
    env.run()
    return log


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_OPS, max_size=6), min_size=1, max_size=4))
@example([[("wait", 0)], [("at", 0.0)], [("succeed", 0)]])  # heap first
@example([[("wait", 0)], [("succeed", 0), ("at", 0.0)]])  # run queue first
@example([[("timeout", 0.5), ("succeed", 1), ("timeout", 1e-300)],
          [("wait", 1)]])  # a positive delay that rounds to `now`
def test_dispatch_order_is_one_heap_keyed_time_then_eid(programs):
    """Whatever mix of ties, zero-delay triggers, nested spawns and
    batched succeeds a script makes, the engine dispatches in the order
    of one plain heap keyed ``(time, eid)``."""
    env = TracingEnvironment()
    trace = env.trace
    reference = HeapCalendar()
    assert _play(env, programs) == _play(reference, programs)
    assert (env.now, len(trace)) == (reference.now, reference.dispatched)
