"""End-of-run sanitizer: ``Environment.finish_check``.

The sanitizer is the runtime twin of the static sim-protocol lint
rules: after a full drain it asserts that no process is still alive,
nothing is still scheduled, and nothing registered with it — resources,
the GPU batchers, the reference ``Store`` of ``tests/reference_paths``
— holds leaked state (a slot still kept by a ``hold()``, a parked
waiter).
"""

import pytest

from repro.core.config import PipelineConfig
from repro.core.modes import IntegrationMode
from repro.core.pipeline import ReductionPipeline
from repro.cpu.model import SimCpu
from repro.errors import SanitizerError
from repro.sim import Environment, Resource
from repro.storage.ssd import SsdModel
from repro.workload.vdbench import VdbenchStream
from tests.reference_paths import Store


class TestCleanRuns:
    def test_empty_environment_is_clean(self):
        Environment().finish_check()

    def test_completed_processes_are_clean(self):
        env = Environment()
        cpu = Resource(env, capacity=2, name="cpu")

        def worker():
            with cpu.request() as req:
                yield req
                yield env.timeout(1.0)

        for _ in range(4):
            env.process(worker())
        env.run()
        env.finish_check()

    def test_fast_path_acquire_release_is_clean(self):
        env = Environment()
        pool = Resource(env, capacity=1, name="pool")
        pool.hold(2.0)
        assert pool.count == 1 and not pool.users  # anonymous slot
        env.run()
        assert pool.count == 0
        env.finish_check()

    def test_drained_store_is_clean(self):
        env = Environment()
        store = Store(env, name="stage")

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        env.finish_check()

    def test_buffered_items_are_not_a_leak(self):
        # A store is a buffer; leftover items are legitimate state.
        env = Environment()
        store = Store(env, name="stage")

        def producer():
            yield store.put("orphan")

        env.process(producer())
        env.run()
        env.finish_check()


class TestLeakDetection:
    def test_leaked_fast_path_slot(self):
        env = Environment()
        pool = Resource(env, capacity=1, name="pool")
        pool.hold(5.0)
        env.run(until=1.0)  # stopped before the hold expires
        with pytest.raises(SanitizerError, match="pool.*still held"):
            env.finish_check()

    def test_leaked_granted_request(self):
        env = Environment()
        pool = Resource(env, capacity=1, name="pool")

        def hog():
            yield pool.request()  # granted, never released

        env.process(hog())
        env.run()
        with pytest.raises(SanitizerError, match="still held"):
            env.finish_check()

    def test_starved_waiter_reported(self):
        env = Environment()
        pool = Resource(env, capacity=1, name="pool")

        def hog():
            yield pool.request()  # granted, never released

        def waiter():
            yield pool.request()  # never granted: the slot leaked

        env.process(hog())
        env.process(waiter())
        env.run()
        with pytest.raises(SanitizerError) as err:
            env.finish_check()
        message = str(err.value)
        assert "still held" in message
        assert "waiting" in message
        assert "process(es) still alive" in message

    def test_live_process_detected(self):
        env = Environment()

        def stuck():
            yield env.event()  # nobody ever triggers this

        env.process(stuck())
        env.run()
        with pytest.raises(SanitizerError, match="still alive"):
            env.finish_check()

    def test_pending_event_detected(self):
        env = Environment()
        env.timeout(5.0)
        # Horizon-limited run: the timeout is still on the calendar.
        env.run(until=1.0)
        with pytest.raises(SanitizerError, match="still scheduled"):
            env.finish_check()

    def test_parked_store_get_detected(self):
        env = Environment()
        store = Store(env, name="stage")

        def starving_consumer():
            yield store.get()

        env.process(starving_consumer())
        env.run()
        with pytest.raises(SanitizerError, match="never satisfied"):
            env.finish_check()

    def test_failed_process_still_counts_as_terminated(self):
        env = Environment()

        def crasher():
            yield env.timeout(1.0)
            raise RuntimeError("boom")

        env.process(crasher())
        with pytest.raises(RuntimeError):
            env.run()
        # The generator finished (by raising): not an alive-process leak,
        # and its failure event has already been dispatched.
        env.finish_check()


class TestPipelineIntegration:
    def test_pipeline_run_passes_finish_check(self):
        config = PipelineConfig().with_overrides(
            mode=IntegrationMode.CPU_ONLY, finish_check=True)
        env = Environment()
        pipeline = ReductionPipeline(env, config, cpu=SimCpu(env),
                                     ssd=SsdModel(env))
        stream = VdbenchStream(dedup_ratio=2.0, comp_ratio=2.0,
                               chunk_size=config.chunk_size, seed=3)
        report = pipeline.run(stream.chunks(64), total=64)
        assert report.chunks == 64

    def test_flag_defaults_off(self):
        assert PipelineConfig().finish_check is False


class TestChargeFastPath:
    def test_coalesced_charge_leaves_no_slots(self):
        # charge() keeps threads through anonymous holds that hand the
        # slot on as they expire — exactly what finish_check audits.
        env = Environment()
        cpu = SimCpu(env)

        def burn():
            for _ in range(10):
                yield cpu.charge(1000.0)

        for _ in range(12):  # oversubscribe: 12 processes, 8 threads
            env.process(burn())
        env.run()
        env.finish_check()
