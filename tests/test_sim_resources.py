"""Unit tests for simulated resources, and for the reference ``Store``
and ``LevelResource``.

``Store`` left ``repro.sim`` when the GPU batcher stopped using it; it
lives on in ``tests/reference_paths.py`` as the inbox of the reference
batcher the schedule-equivalence suite runs against, and its tests
stay with it.  So do the utilisation tests of ``LevelResource``, the
level-curve oracle booked-interval utilisation is held to.
"""

import pytest

from repro.errors import ResourceError
from repro.sim import ChannelLedger, Environment, Resource
from tests.reference_paths import LevelResource, Store


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


def test_users_reflect_grants():
    env = Environment()
    res = Resource(env, capacity=2)
    observed = []

    def user(arrive):
        yield env.timeout(arrive)
        with res.request() as req:
            yield req
            observed.append(len(res.users))
            yield env.timeout(1.0)

    env.process(user(0.0))
    env.process(user(0.5))
    env.run()
    assert observed == [1, 2]
    assert not res.users


def test_utilization_full_occupancy():
    env = Environment()
    res = LevelResource(env, capacity=1)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    env.process(user())
    env.run()
    assert res.monitor.utilization() == pytest.approx(1.0)


def test_utilization_half_occupancy():
    env = Environment()
    res = LevelResource(env, capacity=2)

    def user():
        with res.request() as req:
            yield req
            yield env.timeout(10.0)

    env.process(user())
    env.run()
    assert res.monitor.utilization() == pytest.approx(0.5)


def test_utilization_partial_time():
    env = Environment()
    res = LevelResource(env, capacity=1)

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


def test_ledger_books_the_earliest_free_server_in_call_order():
    env = Environment()
    ledger = ChannelLedger(env, 2)
    assert [ledger.book(keep) for keep in (3.0, 1.0, 2.0, 0.0)] \
        == [0.0, 0.0, 1.0, 3.0]
    assert ledger.utilization(3.0) == 1.0
    env.run(until=env.timeout(10.0))
    # The idle gap is not booked; the new run starts at the booking.
    assert ledger.book(1.0) == 10.0
    assert ledger.utilization(11.0) == 7.0 / 22.0


def test_ledger_refuses_a_negative_or_non_finite_booking():
    env = Environment()
    ledger = ChannelLedger(env, 2)
    ledger.book(1.0)
    heap = [list(server) for server in ledger._heap]
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ResourceError, match="not finite"):
            ledger.book(bad)
    assert ledger._heap == heap
    assert ledger.book(2.0) == 0.0  # the second server, still free
    assert ledger.utilization(2.0) == 3.0 / 4.0


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
