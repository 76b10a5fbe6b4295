"""Shared resources for simulated processes.

:class:`Resource`
    A counted semaphore with FIFO queuing — models disks, network links,
    DMA engines.  ``request()``/``release()`` return events.
:class:`PriorityResource`
    Same, but waiters are served in (priority, FIFO) order.
:class:`Store`
    An unbounded FIFO buffer of items with optional filtered gets — the
    basis of MPI message mailboxes and I/O server request queues.

Grant fast path: when a request can be satisfied immediately (an idle
resource slot, a buffered store item), the returned event is *born fired*
— triggered at creation and sealed, costing no kernel queue entry.  The
consuming process observes the triggered state at its ``yield`` and
schedules one resumption through the kernel's now lane, so the resume
still lands in deterministic ``(time, seq)`` order exactly where the
pre-fast-path kernel placed it.  Resources go one step further: because a
granted event is immutable (value = the resource, state = ok, sealed),
every uncontended ``request()`` on a resource returns the *same*
pre-built event instance, so the fast path allocates nothing at all.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import _SEALED, Event
from repro.sim.kernel import Kernel

__all__ = ["Resource", "PriorityResource", "Store"]


class Resource:
    """Counted FIFO resource with ``capacity`` concurrent holders.

    ``request()`` returns an event that fires when a slot is granted;
    the holder must call ``release()`` exactly once.  A convenience
    generator :meth:`using` wraps request/hold/release::

        yield from resource.using(kernel, hold_time)

    Uncontended requests all return the shared ``_granted`` event (born
    fired with the resource as value); only contended requests allocate a
    fresh pending event and join the FIFO queue.  The queue is a plain
    list: a model holds hundreds of mostly idle capacity-1 ports, and an
    empty deque costs each of them a 528-byte block.
    """

    __slots__ = ("kernel", "capacity", "name", "_in_use", "_waiters",
                 "_req_name", "_granted")

    def __init__(self, kernel: Kernel, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: List[Event] = []
        # Event label shared by every request; formatting it per call is
        # measurable at hot-path request rates.
        self._req_name = f"request({name})"
        # Shared grant for every uncontended request: already fired and
        # sealed, so handing it out costs zero allocations.
        self._granted = Event(kernel, name=self._req_name)
        self._granted._succeed_fresh(self)

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of pending requests."""
        return len(self._waiters)

    def request(self) -> Event:
        """Request a slot; the returned event fires when granted."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        ev = Event(self.kernel, name=self._req_name)
        self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Release a previously granted slot, waking the next waiter.

        Waiters whose requesting process was interrupted while queued
        (``Process.interrupt`` marks the pending request event abandoned
        when its last listener detaches) are skipped: granting such a
        dead waiter would pin the slot forever and silently shrink
        capacity.
        """
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        waiters = self._waiters
        while waiters:
            ev = waiters.pop(0)
            if not ev._abandoned:
                # Hand the slot directly to this waiter: _in_use unchanged.
                ev.succeed(self)
                return
        self._in_use -= 1

    def using(self, hold_time: float):
        """Generator: acquire, hold for ``hold_time``, release.

        Use as ``yield from resource.using(t)`` inside a process body.
        """
        yield self.request()
        try:
            yield self.kernel.timeout(hold_time)
        finally:
            self.release()


class PriorityResource(Resource):
    """Resource whose waiters are served in (priority, arrival) order.

    Lower ``priority`` values are served first.
    """

    __slots__ = ("_pwaiters", "_counter")

    def __init__(self, kernel: Kernel, capacity: int = 1, name: str = "") -> None:
        super().__init__(kernel, capacity, name)
        self._pwaiters: List[Tuple[float, int, Event]] = []
        self._counter = 0

    def request(self, priority: float = 0.0) -> Event:  # type: ignore[override]
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        ev = Event(self.kernel, name=self._req_name)
        self._counter += 1
        heapq.heappush(self._pwaiters, (priority, self._counter, ev))
        return ev

    def release(self) -> None:  # type: ignore[override]
        if self._in_use <= 0:
            raise SimulationError(f"release() of idle resource {self.name!r}")
        pwaiters = self._pwaiters
        while pwaiters:
            _, _, ev = heapq.heappop(pwaiters)
            if not ev._abandoned:
                ev.succeed(self)
                return
        self._in_use -= 1

    @property
    def queue_length(self) -> int:  # type: ignore[override]
        return len(self._pwaiters)


class Store:
    """Unbounded FIFO item buffer with optional filtered retrieval.

    ``put(item)`` returns an already-fired event (puts never block).
    ``get(filter)`` returns an event that fires with the first item
    matching ``filter`` (FIFO order among matches); with no filter, the
    head of the queue.
    """

    def __init__(self, kernel: Kernel, name: str = "") -> None:
        self.kernel = kernel
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Tuple[Event, Optional[Callable[[Any], bool]]]] = deque()
        self._put_name = f"put({name})"
        self._get_name = f"get({name})"

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Deposit ``item``; wakes the first matching waiter if any."""
        # Try to satisfy a pending getter first (FIFO among getters).
        getters = self._getters
        if getters:
            for idx, (ev, flt) in enumerate(getters):
                if flt is None or flt(item):
                    del getters[idx]
                    ev.succeed(item)
                    break
            else:
                self._items.append(item)
        else:
            self._items.append(item)
        # Puts never block: the returned event is born fired (inline of
        # Event._succeed_fresh — one allocation, no extra call).
        done = Event(self.kernel, name=self._put_name)
        done._value = item
        done._ok = True
        done.callbacks = _SEALED
        return done

    def put_nowait(self, item: Any) -> None:
        """Deposit ``item`` without materialising a completion event.

        Identical to :meth:`put` for the store's state and any woken
        getter; use it when the caller discards the returned event (e.g.
        mailbox deposits), saving one event allocation per deposit.
        """
        getters = self._getters
        if getters:
            for idx, (ev, flt) in enumerate(getters):
                if flt is None or flt(item):
                    del getters[idx]
                    ev.succeed(item)
                    return
        self._items.append(item)

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event firing with the first item matching ``filter``."""
        ev = Event(self.kernel, name=self._get_name)
        items = self._items
        if items:
            if filter is None:
                # Born fired with the head item (inline _succeed_fresh).
                ev._value = items.popleft()
                ev._ok = True
                ev.callbacks = _SEALED
                return ev
            for idx, item in enumerate(items):
                if filter(item):
                    del items[idx]
                    ev._value = item
                    ev._ok = True
                    ev.callbacks = _SEALED
                    return ev
        self._getters.append((ev, filter))
        return ev

    def peek_all(self) -> List[Any]:
        """Snapshot of buffered items (for inspection/testing)."""
        return list(self._items)
