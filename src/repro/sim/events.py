"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot waitable: it starts *pending*, is
*triggered* exactly once with an optional value, and every process waiting
on it is resumed with that value.  :class:`Timeout` is an event that the
kernel triggers after a fixed simulated delay.  :class:`AllOf` /
:class:`AnyOf` compose events.

Hot-path contract: while an event is pending, ``callbacks`` is a plain
list and waiters append to it directly.  The moment the event triggers,
the kernel captures that list for firing and replaces ``callbacks`` with
the shared :data:`_SEALED` sentinel — appending a callback to an
already-fired event raises :class:`~repro.errors.SimulationError` instead
of being silently dropped (the historical behaviour).  Check
``triggered`` first and schedule through ``Kernel._call_soon`` to react
to an event that may already have fired, as ``Process`` does.

This module also defines the tagged-entry ``kind`` codes shared with the
kernel's scheduling queues (they live here, not in ``kernel``, so that
:class:`Timeout` can enqueue itself without a circular import).
"""

from __future__ import annotations

from heapq import heappush
from typing import Any, Callable, Iterator, List, Optional

from repro.errors import SimulationError

__all__ = ["Event", "Timeout", "AllOf", "AnyOf"]

# Sentinel distinguishing "no value yet" from a triggered value of None.
_PENDING = object()

# Scheduling-entry kinds, dispatched by Kernel.step()/run().
_KIND_RAW = 0      # a: zero-argument callable
_KIND_CALL = 1     # a: callable, b: argument tuple
_KIND_FIRE = 2     # a: triggered Event, b: its captured callback list
_KIND_TIMEOUT = 3  # a: pending Timeout, b: the value to trigger it with
_KIND_RESUME = 4   # a: Process, b: triggered Event (or None for first resume)


class _SealedCallbacks:
    """Stand-in for ``Event.callbacks`` once the event has fired.

    The original callback list is consumed at fire time, so membership
    checks and iteration report empty; a late ``append`` fails loudly.
    One shared instance (:data:`_SEALED`) serves every fired event, so
    sealing costs no allocation.
    """

    __slots__ = ()

    def append(self, cb: Callable[["Event"], None]) -> None:
        raise SimulationError(
            "callback appended to an already-fired event; check .triggered "
            "first and schedule through kernel._call_soon instead"
        )

    def __contains__(self, cb: object) -> bool:
        return False

    def __iter__(self) -> Iterator:
        return iter(())

    def __len__(self) -> int:
        return 0


_SEALED = _SealedCallbacks()


class Event:
    """A one-shot waitable that processes can ``yield`` on.

    Parameters
    ----------
    kernel:
        Owning kernel.  Needed so that ``succeed`` can schedule the
        callbacks at the current simulated time.
    name:
        Optional human-readable label used in ``repr`` and error messages.
    """

    __slots__ = ("kernel", "name", "_value", "_ok", "callbacks", "_abandoned")

    def __init__(self, kernel: "Kernel", name: str = "") -> None:  # noqa: F821
        self.kernel = kernel
        self.name = name
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # Callbacks run when the event fires; each receives this event.
        self.callbacks: List[Callable[["Event"], None]] = []
        # Set by Process.interrupt() when the last listener detaches from
        # this still-pending event: nobody will ever consume its outcome.
        # Resource queues use it to skip dead waiters (see resources.py).
        self._abandoned = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event was triggered with.

        Raises
        ------
        SimulationError
            If the event has not been triggered yet.
        """
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Waiting processes are scheduled to resume at the current simulated
        time (not synchronously), preserving run-to-yield semantics.
        """
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        self._ok = True
        self.kernel._schedule_fire(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self.kernel._schedule_fire(self)
        return self

    def _succeed_fresh(self, value: Any) -> None:
        """Trigger a *freshly created* event that provably has no listeners.

        Used for grants and deposits that succeed at creation time: the
        event is born fired and sealed, costing no kernel queue entry.
        The consumer (typically ``Process._resume``) observes the
        triggered state at its ``yield`` and schedules its own
        resumption — the only entry the interaction needs.
        """
        self._value = value
        self._ok = True
        self.callbacks = _SEALED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after ``delay`` units of simulated time.

    The kernel schedules the trigger at construction as a tagged queue
    entry (no closure, no intermediate callable); yielding a Timeout
    suspends the process for exactly ``delay``.  Construction is fully
    inlined — pipeline cells create one Timeout per compute/transfer/disk
    interval, so this runs hundreds of thousands of times per cell.
    """

    __slots__ = ("delay",)

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None) -> None:  # noqa: F821
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        self.kernel = kernel
        self.name = ""
        self._value = _PENDING
        self._ok = None
        self.callbacks = []
        self._abandoned = False
        self.delay = delay = float(delay)
        # Stays pending until the kernel's clock reaches now + delay.
        kernel._seq += 1
        if delay == 0.0:
            kernel._lane.append((kernel._seq, _KIND_TIMEOUT, self, value))
        else:
            t = kernel._now + delay
            if t > kernel._now:
                kernel._timed += 1
                heappush(kernel._heap, (t, kernel._seq, _KIND_TIMEOUT, self, value))
            else:
                # Positive delay that vanishes in float addition: due at
                # the current timestamp, after everything already queued.
                kernel._due.append((kernel._seq, _KIND_TIMEOUT, self, value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._value is not _PENDING:
            state = "ok" if self._ok else "failed"
        return f"<Timeout({self.delay}) {state} at {id(self):#x}>"


class _Condition(Event):
    """Shared machinery for :class:`AllOf` and :class:`AnyOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, kernel: "Kernel", events: List[Event]) -> None:  # noqa: F821
        super().__init__(kernel, name=self.__class__.__name__)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            # Degenerate condition is immediately satisfied.
            self.succeed([])
            return
        for ev in self.events:
            if ev._value is not _PENDING:
                # Already-fired events count immediately via a callback
                # scheduled through the kernel to keep ordering uniform.
                self.kernel._call_soon(self._on_child, ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, ev: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires once every child event has fired; value is the list of values.

    If any child fails, the condition fails with that child's exception as
    soon as the failure is observed.
    """

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([e._value for e in self.events])


class AnyOf(_Condition):
    """Fires when the first child event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _on_child(self, ev: Event) -> None:
        if self._value is not _PENDING:
            return
        if not ev._ok:
            self.fail(ev._value)
            return
        self.succeed((ev, ev._value))
