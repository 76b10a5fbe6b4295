"""Unit tests for repro.sim.process."""

import pytest

from repro.errors import SimulationError
from repro.sim.process import Interrupt, Process
from repro.sim.resources import Resource


class TestLifecycle:
    def test_non_generator_rejected(self, kernel):
        with pytest.raises(SimulationError):
            Process(kernel, lambda: None)  # type: ignore[arg-type]

    def test_return_value_becomes_event_value(self, kernel):
        def body(k):
            yield k.timeout(1.0)
            return "result"

        p = kernel.process(body(kernel))
        kernel.run()
        assert p.value == "result"

    def test_alive_until_done(self, kernel):
        def body(k):
            yield k.timeout(2.0)

        p = kernel.process(body(kernel))
        assert p.is_alive
        kernel.run(until=1.0)
        assert p.is_alive
        kernel.run()
        assert not p.is_alive

    def test_empty_body_finishes_immediately(self, kernel):
        def body(k):
            return "done"
            yield  # pragma: no cover

        p = kernel.process(body(kernel))
        kernel.run()
        assert p.value == "done"

    def test_spawn_order_is_start_order(self, kernel):
        order = []

        def body(k, name):
            order.append(name)
            yield k.timeout(0.0)

        for n in "abc":
            kernel.process(body(kernel, n))
        kernel.run()
        assert order == ["a", "b", "c"]


class TestWaiting:
    def test_process_waits_on_process(self, kernel):
        def child(k):
            yield k.timeout(3.0)
            return 99

        def parent(k):
            c = k.process(child(k))
            v = yield c
            return (v, k.now)

        p = kernel.process(parent(kernel))
        kernel.run()
        assert p.value == (99, 3.0)

    def test_wait_on_finished_process(self, kernel):
        def child(k):
            yield k.timeout(1.0)
            return "x"

        def parent(k, c):
            yield k.timeout(5.0)
            v = yield c  # already finished
            return v

        c = kernel.process(child(kernel))
        p = kernel.process(parent(kernel, c))
        kernel.run()
        assert p.value == "x"

    def test_exception_propagates_to_waiter(self, kernel):
        def child(k):
            yield k.timeout(1.0)
            raise KeyError("oops")

        def parent(k, c):
            with pytest.raises(KeyError):
                yield c
            return "handled"

        c = kernel.process(child(kernel))
        p = kernel.process(parent(kernel, c))
        kernel.run()
        assert p.value == "handled"


class TestInterrupt:
    def test_interrupt_wakes_blocked_process(self, kernel):
        seen = []

        def sleeper(k):
            try:
                yield k.timeout(100.0)
            except Interrupt as i:
                seen.append((i.cause, k.now))

        def interrupter(k, target):
            yield k.timeout(2.0)
            target.interrupt("wake up")

        t = kernel.process(sleeper(kernel))
        kernel.process(interrupter(kernel, t))
        kernel.run(until=10.0)
        assert seen == [("wake up", 2.0)]

    def test_interrupt_finished_process_raises(self, kernel):
        def quick(k):
            yield k.timeout(0.1)

        p = kernel.process(quick(kernel))
        kernel.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, kernel):
        def resilient(k):
            try:
                yield k.timeout(100.0)
            except Interrupt:
                pass
            yield k.timeout(1.0)
            return k.now

        def interrupter(k, target):
            yield k.timeout(2.0)
            target.interrupt()

        p = kernel.process(resilient(kernel))
        kernel.process(interrupter(kernel, p))
        kernel.run()
        assert p.value == 3.0

    @pytest.mark.parametrize("listeners", ["waiter-only", "with-observer"])
    @pytest.mark.parametrize("drive", ["run", "step"])
    def test_interrupt_in_grant_instant_drops_stale_resume(
        self, kernel, drive, listeners
    ):
        """A grant that fires in the interrupt's instant must not resume
        the process: the Interrupt lands at the grant's ``yield``, and a
        later wait is not cut short by the abandoned hold."""
        res = Resource(kernel, name="r")

        def holder(k):
            yield res.request()
            yield k.timeout(1.0)
            res.release()  # grants the waiter: its resume is queued
            w.interrupt("revoked")

        def waiter(k):
            req = res.request()
            if listeners == "with-observer":  # fire via _on_event
                req.callbacks.append(lambda _ev: None)
            landed = "grant"
            try:
                yield req
                landed = "hold"
                yield k.timeout(1.0)
            except Interrupt:
                pass
            res.release()
            yield k.timeout(5.0)
            return landed, k.now

        kernel.process(holder(kernel))  # spawned first: takes the slot
        w = kernel.process(waiter(kernel))
        if drive == "run":
            kernel.run()
        else:
            while kernel.peek() is not None:
                kernel.step()
        # Before, the stale resume delivered the grant, the Interrupt
        # landed in the hold, and the hold's timeout woke it at 2.0.
        assert w.value == ("grant", 6.0)
        assert res.in_use == 0
