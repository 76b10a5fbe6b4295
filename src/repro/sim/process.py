"""Generator-based simulated processes.

A :class:`Process` drives a generator: each value the generator yields
must be an :class:`~repro.sim.events.Event` (or subclass); the process
suspends until the event fires and is resumed with the event's value
(``throw``-n into if the event failed).  A Process is itself an Event that
fires when the generator returns, carrying the generator's return value —
so processes can wait on each other by yielding them.

The suspend/resume cycle is the single hottest path of the simulator
(hundreds of thousands of traversals per pipeline cell), so it is written
against kernel internals rather than the public API:

* event state is read through direct slot access, not the
  ``triggered``/``ok``/``value`` properties;
* the ``_on_event`` callback is pre-bound once per process;
* a yield on an already-fired event appends a ``_KIND_RESUME`` entry to
  the kernel's now lane directly — the kernel's dispatch loop unpacks the
  event's outcome and calls :meth:`Process._resume` with no intermediate
  ``_on_event``/``_call_soon`` frames;
* the "is it an Event?" check is EAFP — reading ``target._value`` — so
  the common case costs an attribute load instead of an ``isinstance``
  call.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.events import _KIND_RESUME, _PENDING, Event

__all__ = ["Process"]


class Process(Event):
    """A running simulated process; also an event firing at completion."""

    __slots__ = ("generator", "_waiting_on", "_on_event_cb")

    def __init__(self, kernel: "Kernel", generator: Generator, name: str = "") -> None:  # noqa: F821
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process body must be a generator, got {type(generator).__name__}"
            )
        # Event.__init__ inlined: processes are spawned per message/request
        # in the MPI layer, so construction is itself a hot path.
        self.kernel = kernel
        self.name = name or getattr(generator, "__name__", "process")
        self._value = _PENDING
        self._ok = None
        self.callbacks = []
        self._abandoned = False
        self.generator = generator
        self._waiting_on: Event | None = None
        # One bound method for the life of the process; appended to every
        # event this process waits on.
        self._on_event_cb = self._on_event
        kernel._active += 1
        # First resumption happens via the queue so that process start
        # order matches spawn order deterministically.  ``b is None``
        # marks the initial resume in the kernel's dispatch.
        kernel._seq += 1
        kernel._lane.append((kernel._seq, _KIND_RESUME, self, None))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._value is _PENDING

    def _resume(self, send_value: Any, throw_exc: BaseException | None) -> None:
        if self._value is not _PENDING:  # interrupted/finished while a resume was queued
            return
        try:
            if throw_exc is not None:
                target = self.generator.throw(throw_exc)
            else:
                target = self.generator.send(send_value)
        except StopIteration as stop:
            self.kernel._active -= 1
            self.succeed(stop.value)
            # Break the instance -> bound-method -> instance cycle so the
            # finished process is freed by reference counting instead of
            # lingering as cyclic garbage for the GC (pipeline cells shed
            # tens of thousands of processes; chasing their cycles costs
            # ~15% of wall time on full-size cells).
            self._on_event_cb = None
            return
        except BaseException as exc:  # generator raised: fail the process
            self.kernel._active -= 1
            # If nobody is waiting on this process when it fails, surface
            # the exception through Kernel.run() rather than letting the
            # simulation deadlock silently.
            had_waiters = bool(self.callbacks)
            self.fail(exc)
            self._on_event_cb = None  # break the self-cycle (see above)
            if not had_waiters:
                self.kernel._unobserved_failures.append(exc)
            return

        try:
            pending = target._value is _PENDING
        except AttributeError:
            # Not an Event.  Tell the generator it yielded garbage; this
            # surfaces the bug at the offending ``yield`` with a clear
            # traceback.
            self.kernel._call_soon(
                self._resume,
                None,
                SimulationError(
                    f"process {self.name!r} yielded non-event {target!r}"
                ),
            )
            return

        self._waiting_on = target
        if pending:
            target.callbacks.append(self._on_event_cb)
        else:
            # Already fired: resume on the next queue step with its value.
            # The kernel's _KIND_RESUME dispatch reads the outcome off the
            # event and calls _resume directly.
            k = self.kernel
            k._seq += 1
            k._lane.append((k._seq, _KIND_RESUME, self, target))

    def _on_event(self, event: Event) -> None:
        if self._waiting_on is not event:
            return  # stale: interrupted after ``event`` fired
        self._waiting_on = None
        if event._ok:
            self._resume(event._value, None)
        else:
            self._resume(None, event._value)

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        The process stops waiting on its event at once.  If that event
        already fired in this instant, its queued resume finds the
        process no longer waiting on it and is skipped, so the outcome
        is dropped and the Interrupt lands at the same ``yield``.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        waiting = self._waiting_on
        if waiting is not None and self._on_event_cb in waiting.callbacks:
            waiting.callbacks.remove(self._on_event_cb)
            if not waiting.callbacks:
                # Last listener gone from a still-pending event: nobody
                # will ever consume its outcome.  Resource queues skip
                # such dead waiters instead of granting them a slot.
                waiting._abandoned = True
        self._waiting_on = None
        self.kernel._call_soon(self._resume, None, Interrupt(cause))


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause
