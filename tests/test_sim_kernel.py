"""Unit tests for repro.sim.kernel."""

import gc

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim.kernel import Kernel
from repro.sim.resources import Store


class TestScheduling:
    def test_clock_starts_at_zero(self, kernel):
        assert kernel.now == 0.0

    def test_step_on_empty_queue_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel.step()

    def test_negative_delay_raises(self, kernel):
        with pytest.raises(SimulationError):
            kernel._push(-0.5, lambda: None)

    def test_equal_time_fires_in_insertion_order(self, kernel):
        order = []
        for i in range(5):
            kernel._push(1.0, lambda i=i: order.append(i))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_time_ordering(self, kernel):
        order = []
        kernel._push(3.0, lambda: order.append("c"))
        kernel._push(1.0, lambda: order.append("a"))
        kernel._push(2.0, lambda: order.append("b"))
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_peek(self, kernel):
        assert kernel.peek() is None
        kernel._push(4.0, lambda: None)
        assert kernel.peek() == 4.0


class TestRun:
    def test_run_until_stops_clock(self, kernel):
        kernel.timeout(10.0)
        t = kernel.run(until=3.0)
        assert t == 3.0 and kernel.now == 3.0

    def test_run_until_past_all_events(self, kernel):
        kernel.timeout(1.0)
        t = kernel.run(until=5.0)
        assert t == 5.0

    def test_run_returns_final_time(self, kernel):
        kernel.timeout(7.0)
        assert kernel.run() == 7.0

    def test_resume_after_until(self, kernel):
        tmo = kernel.timeout(10.0)
        kernel.run(until=5.0)
        assert not tmo.triggered
        kernel.run()
        assert tmo.triggered and kernel.now == 10.0

    def test_deterministic_replay(self):
        def scenario():
            k = Kernel()
            log = []

            def proc(k, name, delay):
                yield k.timeout(delay)
                log.append((name, k.now))
                yield k.timeout(delay)
                log.append((name, k.now))

            for i, d in enumerate([0.3, 0.1, 0.2]):
                k.process(proc(k, f"p{i}", d))
            k.run()
            return log

        assert scenario() == scenario()


class TestDeadlockDetection:
    def test_blocked_process_raises_deadlock(self, kernel):
        store = Store(kernel)

        def blocked(k, s):
            yield s.get()

        kernel.process(blocked(kernel, store))
        with pytest.raises(DeadlockError):
            kernel.run()

    def test_no_deadlock_when_all_finish(self, kernel):
        def fine(k):
            yield k.timeout(1.0)

        kernel.process(fine(kernel))
        kernel.run()  # should not raise

    def test_deadlock_check_disabled(self, kernel):
        store = Store(kernel)

        def blocked(k, s):
            yield s.get()

        kernel.process(blocked(kernel, store))
        kernel.run(check_deadlock=False)  # no raise

    def test_run_until_does_not_deadlock_check(self, kernel):
        store = Store(kernel)

        def blocked(k, s):
            yield s.get()

        kernel.process(blocked(kernel, store))
        kernel.run(until=10.0)  # bounded run: no deadlock error


class TestFailurePropagation:
    def test_unobserved_process_exception_surfaces(self, kernel):
        def bad(k):
            yield k.timeout(1.0)
            raise ValueError("kaboom")

        kernel.process(bad(kernel))
        with pytest.raises(ValueError, match="kaboom"):
            kernel.run()

    def test_observed_failure_is_handled_by_waiter(self, kernel):
        def bad(k):
            yield k.timeout(1.0)
            raise ValueError("inner")

        outcome = []

        def waiter(k, proc):
            try:
                yield proc
            except ValueError as e:
                outcome.append(str(e))

        p = kernel.process(bad(kernel))
        kernel.process(waiter(kernel, p))
        kernel.run()
        assert outcome == ["inner"]

    def test_yielding_garbage_raises(self, kernel):
        def bad(k):
            yield 42

        kernel.process(bad(kernel))
        with pytest.raises(SimulationError, match="non-event"):
            kernel.run()


@pytest.fixture
def collector():
    """Leave the cyclic collector as the test found it, pass or fail."""
    was = gc.isenabled()
    yield
    if was:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """Kernel.run pauses the cyclic GC and restores it on every exit."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_normal_return(self, kernel, collector, enabled):
        seen = []

        def probe(k):
            seen.append(gc.isenabled())
            yield k.timeout(1.0)
            seen.append(gc.isenabled())

        kernel.process(probe(kernel))
        if enabled:
            gc.enable()
        else:
            gc.disable()
        assert kernel.run() == 1.0
        assert seen == [False, False]
        assert gc.isenabled() is enabled

    def test_deadlock_error(self, kernel, collector):
        store = Store(kernel)

        def blocked(k):
            yield store.get()

        kernel.process(blocked(kernel))
        gc.enable()
        with pytest.raises(DeadlockError):
            kernel.run()
        assert gc.isenabled()

    def test_unobserved_process_failure(self, kernel, collector):
        def bad(k):
            yield k.timeout(1.0)
            raise ValueError("kaboom")

        kernel.process(bad(kernel))
        gc.enable()
        with pytest.raises(ValueError, match="kaboom"):
            kernel.run()
        assert gc.isenabled()

    def test_caller_had_disabled_it(self, kernel, collector):
        def bad(k):
            yield k.timeout(1.0)
            raise ValueError("kaboom")

        kernel.process(bad(kernel))
        gc.disable()
        with pytest.raises(ValueError):
            kernel.run()
        assert not gc.isenabled()
        kernel.run(until=5.0)
        assert not gc.isenabled()

    def test_run_until_return(self, kernel, collector):
        kernel.timeout(10.0)
        gc.enable()
        assert kernel.run(until=3.0) == 3.0
        assert gc.isenabled()

    def test_cell_garbage_does_not_grow_with_cpis(self, collector):
        """Pausing the collector is safe only because a cell leaves a
        fixed amount of cyclic garbage: simulating 16x the CPIs must not
        leave more (finished processes break their self-cycle)."""
        from repro.bench.engine import ExperimentSpec, run_spec
        from repro.core.context import ExecutionConfig
        from repro.core.executor import FSConfig
        from repro.core.pipeline import NodeAssignment
        from repro.stap.params import STAPParams

        params = STAPParams()

        def garbage(n_cpis):
            spec = ExperimentSpec(
                assignment=NodeAssignment.case(1, params),
                pipeline="embedded",
                machine="paragon",
                fs=FSConfig(kind="pfs", stripe_factor=16),
                params=params,
                cfg=ExecutionConfig(n_cpis=n_cpis, warmup=2),
                seed=0,
            )
            gc.collect()
            gc.disable()
            result = run_spec(spec)
            found = gc.collect()  # result still referenced: garbage only
            assert result.throughput > 0
            return found

        small = garbage(8)
        assert small > 0
        assert garbage(128) <= small
