"""Unit tests for simulated resources, and for the reference ``Store``.

``Store`` left ``repro.sim`` when the GPU batcher stopped using it; it
lives on in ``tests/reference_paths.py`` as the inbox of the reference
batcher the schedule-equivalence suite runs against, and its tests
stay with it.
"""

import pytest

from repro.errors import ResourceError
from repro.sim import Environment, Resource
from repro.sim.resources import PriorityResource
from tests.reference_paths import Store


def test_resource_capacity_validation():
    env = Environment()
    with pytest.raises(ResourceError):
        Resource(env, capacity=0)


def test_single_slot_serializes_users():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def user(name):
        with res.request() as req:
            yield req
            log.append((name, "start", env.now))
            yield env.timeout(2.0)
            log.append((name, "end", env.now))

    env.process(user("a"))
    env.process(user("b"))
    env.run()
    assert log == [
        ("a", "start", 0.0), ("a", "end", 2.0),
        ("b", "start", 2.0), ("b", "end", 4.0),
    ]


def test_multi_slot_runs_concurrently():
    env = Environment()
    res = Resource(env, capacity=3)
    ends = []

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(5.0)
            ends.append(env.now)

    for _ in range(3):
        env.process(user())
    env.run()
    assert ends == [5.0, 5.0, 5.0]


def test_fifo_grant_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(name, arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(10.0)

    env.process(user("first", 1.0))
    env.process(user("second", 2.0))
    env.process(user("third", 3.0))
    env.run()
    assert order == ["first", "second", "third"]


def test_release_unowned_request_raises():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc():
        req = res.request()
        yield req
        res.release(req)
        res.release(req)  # double release

    env.process(proc())
    with pytest.raises(ResourceError):
        env.run()


def test_count_reflects_grants():
    env = Environment()
    res = Resource(env, capacity=2)
    observed = []

    def user(arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            observed.append(res.count)
            yield env.timeout(1.0)

    env.process(user(0.0))
    env.process(user(0.5))
    env.run()
    assert observed == [1, 2]
    assert res.count == 0


def test_utilization_full_occupancy():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    env.process(user())
    env.run()
    assert res.monitor.utilization() == pytest.approx(1.0)


def test_utilization_half_occupancy():
    env = Environment()
    res = Resource(env, capacity=2)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    env.process(user())
    env.run()
    assert res.monitor.utilization() == pytest.approx(0.5)


def test_utilization_partial_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def user():
        yield env.timeout(5.0)
        with res.request() as req:
            yield req
            yield env.timeout(5.0)

    def tail():
        yield env.timeout(20.0)

    env.process(user())
    env.process(tail())
    env.run()
    assert res.monitor.utilization() == pytest.approx(0.25)
    assert res.monitor.busy_time() == pytest.approx(5.0)


def test_monitor_peak():
    env = Environment()
    res = Resource(env, capacity=4)

    def user(arrive, hold):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    env.process(user(0.0, 3.0))
    env.process(user(1.0, 3.0))
    env.process(user(2.0, 0.5))
    env.run()
    assert res.monitor.peak == 3


def test_cancel_ungranted_request():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def holder():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    def impatient():
        yield env.timeout(1.0)
        req = res.request()
        yield env.timeout(1.0)  # still waiting — holder owns the slot
        req.cancel()

    def last():
        yield env.timeout(3.0)
        with res.request() as req:
            yield req
            granted.append(env.now)

    env.process(holder())
    env.process(impatient())
    env.process(last())
    env.run()
    # The cancelled request must not absorb the slot freed at t=10.
    assert granted == [10.0]


def test_hold_is_one_event_and_keeps_fifo_with_requests():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def requester(name):
        with res.request() as req:
            yield req
            log.append((name, "granted", env.now))
            yield env.timeout(2.0)

    def holder(name, keep):
        hold = res.hold(keep)
        yield hold
        log.append((name, "held", hold.granted_at, env.now))

    env.process(requester("r1"))
    env.process(holder("h1", 3.0))
    env.process(requester("r2"))
    env.process(holder("h2", 0.0))
    trace = []
    env._trace = trace
    env.run()
    assert log == [("r1", "granted", 0.0), ("h1", "held", 2.0, 5.0),
                   ("r2", "granted", 5.0), ("h2", "held", 7.0, 7.0)]
    assert [name for _t, name in trace].count("Hold") == 2
    assert res.count == 0 and res.monitor.busy_time() == 7.0
    env.finish_check()


def test_hold_hands_the_slot_on_before_the_holder_resumes():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = []

    def first():
        yield res.hold(1.0)
        seen.append(("first resumed, slot count", res.count))

    def second():
        hold = res.hold(1.0)
        yield hold
        seen.append(("second granted at", hold.granted_at))

    env.process(first())
    env.process(second())
    env.run()
    assert seen == [("first resumed, slot count", 1),
                    ("second granted at", 1.0)]


def test_hold_rejects_a_negative_delay():
    env = Environment()
    res = Resource(env, capacity=1, name="pool")
    with pytest.raises(ResourceError, match="negative hold"):
        res.hold(-1e-9)
    assert res.count == 0 and not res.queue


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer():
        for i in range(3):
            yield store.put(i)
            yield env.timeout(1.0)

    def consumer():
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer())
    env.process(consumer())
    env.run()
    assert [item for _, item in got] == [0, 1, 2]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = []

    def consumer():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(4.0)
        yield store.put("x")

    env.process(consumer())
    env.process(producer())
    env.run()
    assert got == [(4.0, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer():
        yield store.put("a")
        times.append(("a", env.now))
        yield store.put("b")
        times.append(("b", env.now))

    def consumer():
        yield env.timeout(5.0)
        yield store.get()

    env.process(producer())
    env.process(consumer())
    env.run()
    assert times == [("a", 0.0), ("b", 5.0)]


def test_store_invalid_capacity():
    env = Environment()
    with pytest.raises(ResourceError):
        Store(env, capacity=0)


class TestPriorityResource:
    def test_high_priority_overtakes_waiting_low(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def user(name, arrive, priority):
            yield env.timeout(arrive)
            with res.request(priority) as req:
                yield req
                order.append(name)
                yield env.timeout(10.0)

        env.process(user("holder", 0.0, 0))
        env.process(user("low", 1.0, 5))
        env.process(user("high", 2.0, 1))
        env.run()
        # Both waited behind the holder; high (smaller value) wins.
        assert order == ["holder", "high", "low"]

    def test_running_user_is_never_preempted(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        events = []

        def holder():
            with res.request(9) as req:  # lowest priority
                yield req
                events.append(("holder-start", env.now))
                yield env.timeout(10.0)
                events.append(("holder-end", env.now))

        def urgent():
            yield env.timeout(1.0)
            with res.request(0) as req:
                yield req
                events.append(("urgent-start", env.now))

        env.process(holder())
        env.process(urgent())
        env.run()
        assert events == [("holder-start", 0.0), ("holder-end", 10.0),
                          ("urgent-start", 10.0)]

    def test_equal_priority_is_fifo(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        order = []

        def user(name, arrive):
            yield env.timeout(arrive)
            with res.request(3) as req:
                yield req
                order.append(name)
                yield env.timeout(5.0)

        env.process(user("first", 0.5))
        env.process(user("second", 1.0))
        env.process(user("third", 1.5))
        env.run()
        assert order == ["first", "second", "third"]

    def test_cancel_removes_from_heap(self):
        env = Environment()
        res = PriorityResource(env, capacity=1)
        granted = []

        def holder():
            with res.request(0) as req:
                yield req
                yield env.timeout(10.0)

        def impatient():
            yield env.timeout(1.0)
            req = res.request(0)
            yield env.timeout(1.0)
            req.cancel()

        def last():
            yield env.timeout(3.0)
            with res.request(1) as req:
                yield req
                granted.append(env.now)

        env.process(holder())
        env.process(impatient())
        env.process(last())
        env.run()
        assert granted == [10.0]


def test_hold_on_a_priority_resource_waits_at_priority_zero():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def requester(name, priority):
        with res.request(priority) as req:
            yield req
            order.append(name)
            yield env.timeout(1.0)

    def holder():
        yield res.hold(1.0)
        order.append("hold")

    env.process(requester("running", 0))
    env.process(requester("low", 5))
    env.process(holder())
    env.process(requester("urgent", -1))
    env.run()
    assert order == ["running", "urgent", "hold", "low"]
    env.finish_check()


def test_store_peak_items():
    env = Environment()
    store = Store(env)

    def producer():
        for i in range(5):
            yield store.put(i)

    env.process(producer())
    env.run()
    assert store.peak_items == 5
    assert store.level == 5
