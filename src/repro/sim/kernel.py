"""The discrete-event simulation kernel (event loop).

The kernel owns the simulated clock and three scheduling structures that
together behave like one priority queue ordered by ``(time, seq)``:

* a **heap** of ``(time, seq, kind, a, b)`` entries — a plain list kept
  by :mod:`heapq` — for entries with a positive delay;
* a **now lane** — a plain ``deque`` of ``(seq, kind, a, b)`` entries —
  for zero-delay actions (event firings, process resumptions, chained
  callbacks), which in pipeline workloads are the majority of all
  scheduling traffic;
* a **due batch** — a deque of heap entries already popped at the
  current clock.  When the lane and the due batch drain, the kernel pops
  the heap minimum, advances the clock to its time, and moves every
  equal-time peer into the due batch in one sweep.

``seq`` is a monotone counter so that entries at equal times fire in
insertion order — this makes every simulation in the package fully
deterministic.  Lane and due entries are both FIFO in ``seq``, so
merging them needs one integer comparison only while the due batch is
non-empty; the common case (due empty) pops the lane unconditionally.
Every heap entry lies strictly in the future: a positive delay that
vanishes in float addition (``now + d == now``) goes to the due batch.

Entries are *tagged tuples* rather than closures: ``kind`` selects the
dispatch (resume a process, fire an event's captured callbacks, trigger
a timeout, call ``a(*b)``, or invoke a raw thunk), so the hot path
allocates no lambdas.  :meth:`Kernel.run` inlines the clock advance, the
pop-minimum merge and the full process resume cycle — one generator
``send`` per simulated resumption with no intervening Python frame —
while :meth:`Kernel.step` remains the single-step API with identical
semantics.  ``run`` also pauses the cyclic garbage collector for its
duration (see its docstring).
"""

from __future__ import annotations

import gc
from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import (
    _KIND_CALL,
    _KIND_FIRE,
    _KIND_RAW,
    _KIND_RESUME,
    _KIND_TIMEOUT,
    _PENDING,
    _SEALED,
    AllOf,
    AnyOf,
    Event,
    Timeout,
)

__all__ = ["Kernel"]

# The overwhelmingly common event fire has exactly one listener: the
# ``_on_event`` bound method of a single waiting Process.  The fire sites
# below probe for that shape (EAFP: tuple-unpack plus two attribute
# loads, no calls) and emit a ``_KIND_RESUME`` entry instead of a generic
# ``_KIND_FIRE``, so the dispatch loop resumes the process directly
# without an ``_on_event`` frame.  Bound at the bottom of this module
# (process.py only depends on events.py, so the import is acyclic).


class Kernel:
    """Deterministic discrete-event simulator.

    Typical use::

        k = Kernel()

        def producer(k, store):
            yield k.timeout(1.0)
            yield store.put("item")

        def consumer(k, store):
            item = yield store.get()
            return item

        store = Store(k)
        k.process(producer(k, store))
        proc = k.process(consumer(k, store))
        k.run()
        assert proc.value == "item"
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._seq: int = 0
        # Zero-delay entries at the current time: (seq, kind, a, b).
        # Invariant: the lane drains completely before the clock advances,
        # so every lane entry's implicit time is exactly ``self._now``.
        self._lane: Deque[Tuple[int, int, Any, Any]] = deque()
        # Heap entries already popped at the current timestamp, FIFO in
        # seq like the lane.  Only non-empty between a clock advance and
        # the dispatch of the entries that caused it.
        self._due: Deque[Tuple[int, int, Any, Any]] = deque()
        # Timed entries (time, seq, kind, a, b), time > now, as a heapq.
        self._heap: List[Tuple[float, int, int, Any, Any]] = []
        # Instrumentation (see queue_stats), kept off the lane hot path:
        # only heap pushes and clock advances touch these.
        self._timed: int = 0
        self._advances: int = 0
        self._heap_peak: int = 0
        self._active: int = 0  # live (unfinished) processes, for deadlock detection
        # Exceptions from processes that failed with nobody waiting on
        # them; run() re-raises these instead of deadlocking opaquely.
        self._unobserved_failures: List[BaseException] = []
        # Observability hook (see repro.obs.sampler): when set, called as
        # ``_monitor(now)`` right after the clock advances to a time
        # >= ``_monitor_next`` — i.e. only on a heap pop, since
        # lane entries never move the clock.  The monitor must be a pure
        # observer: it maintains ``_monitor_next`` itself and must not
        # schedule, so event order is identical with or without it.
        self._monitor: Optional[Callable[[float], None]] = None
        self._monitor_next: float = float("inf")

    # -- clock -----------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- timed entries ---------------------------------------------------
    def _advance(self) -> None:
        """Advance the clock to the earliest timed entry.

        Pops the heap minimum and every equal-time peer into the due
        batch (heap order is ``(time, seq)``, so they arrive seq-ascending)
        and runs the monitor hook.  :meth:`run` inlines this; the caller
        guarantees the heap is non-empty.
        """
        heap = self._heap
        if len(heap) > self._heap_peak:
            self._heap_peak = len(heap)
        entry = heappop(heap)
        t = entry[0]
        due = self._due
        due.append(entry[1:])
        while heap and heap[0][0] == t:
            due.append(heappop(heap)[1:])
        self._now = t
        self._advances += 1
        if t >= self._monitor_next:
            self._monitor(t)

    def queue_stats(self) -> Dict[str, Any]:
        """Scheduling traffic counters, cumulative over the kernel's life.

        Exposed through ``repro profile --queue-stats``.  ``calendar_*``,
        ``fallback_scans`` and ``resizes`` keep the names the calendar-ring
        kernel reported under (benchmark ledgers read them): timed entries
        are heap entries now, and a heap never rescans or resizes, so the
        last two are always 0.
        """
        total = self._seq
        timed = self._timed
        live = len(self._heap)
        return {
            "total_entries": total,
            "lane_entries": total - timed,
            "calendar_entries": timed,
            "lane_ratio": (total - timed) / total if total else 0.0,
            "advances": self._advances,
            "heap_size": live,
            "heap_peak": max(self._heap_peak, live),
            "fallback_scans": 0,
            "resizes": 0,
        }

    # -- scheduling ------------------------------------------------------
    def _push(self, delay: float, action: Callable[[], None]) -> None:
        """Schedule a raw zero-argument callable after ``delay``."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        if delay == 0.0:
            self._lane.append((self._seq, _KIND_RAW, action, None))
        else:
            t = self._now + delay
            if t > self._now:
                self._timed += 1
                heappush(self._heap, (t, self._seq, _KIND_RAW, action, None))
            else:
                # Positive delay vanishing in float addition: the entry
                # is due at the current timestamp, after everything
                # already queued (its seq is the largest so far).
                self._due.append((self._seq, _KIND_RAW, action, None))

    def _call_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` at the current simulated time, after the
        currently-executing step finishes."""
        self._seq += 1
        self._lane.append((self._seq, _KIND_CALL, fn, args))

    def _schedule_fire(self, event: Event) -> None:
        """Schedule a just-triggered event's callbacks and seal the event.

        The callback list is captured *now* (trigger time) and the event's
        ``callbacks`` attribute is replaced by the shared sealed sentinel,
        so a callback appended after triggering raises instead of being
        silently dropped.  An event nobody listens to schedules nothing at
        all — the fast path for fire-and-forget completions.
        """
        cbs = event.callbacks
        event.callbacks = _SEALED
        if cbs:
            self._seq += 1
            try:
                (cb,) = cbs
                if cb.__func__ is _PROCESS_ON_EVENT:
                    self._lane.append((self._seq, _KIND_RESUME, cb.__self__, event))
                    return
            except (ValueError, AttributeError):
                pass
            self._lane.append((self._seq, _KIND_FIRE, event, cbs))

    # -- factories -------------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create a :class:`Timeout` firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def all_of(self, events: List[Event]) -> AllOf:
        """Event that fires when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """Event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: Generator, name: str = "") -> "Process":  # noqa: F821
        """Spawn a simulated process from a generator and return it."""
        from repro.sim.process import Process

        return Process(self, generator, name=name)

    # -- main loop -------------------------------------------------------
    def step(self) -> None:
        """Execute the next scheduled action, advancing the clock.

        The next action is the minimum of the lane head, the due-batch
        head, and the heap minimum under ``(time, seq)`` order.  Lane and
        due entries both live at the current time, so merging them is a
        seq comparison; the heap is consulted only when both are empty (a
        clock advance).
        """
        lane = self._lane
        due = self._due
        if due:
            if lane and lane[0][0] < due[0][0]:
                _seq, kind, a, b = lane.popleft()
            else:
                _seq, kind, a, b = due.popleft()
        elif lane:
            _seq, kind, a, b = lane.popleft()
        elif self._heap:
            self._advance()
            _seq, kind, a, b = due.popleft()
        else:
            raise SimulationError("step() on an empty event queue")

        if kind == _KIND_RESUME:
            if b is None:
                a._resume(None, None)
            else:
                a._waiting_on = None
                if b._ok:
                    a._resume(b._value, None)
                else:
                    a._resume(None, b._value)
        elif kind == _KIND_FIRE:
            for cb in b:
                cb(a)
        elif kind == _KIND_TIMEOUT:
            if a._value is not _PENDING:
                raise SimulationError(f"event {a!r} already triggered")
            a._value = b
            a._ok = True
            cbs = a.callbacks
            a.callbacks = _SEALED
            if cbs:
                self._seq += 1
                try:
                    (cb,) = cbs
                    if cb.__func__ is _PROCESS_ON_EVENT:
                        lane.append((self._seq, _KIND_RESUME, cb.__self__, a))
                        cbs = None
                except (ValueError, AttributeError):
                    pass
                if cbs is not None:
                    lane.append((self._seq, _KIND_FIRE, a, cbs))
        elif kind == _KIND_CALL:
            a(*b)
        else:  # _KIND_RAW
            a()

    def run(self, until: Optional[float] = None, *, check_deadlock: bool = True) -> float:
        """Run until the queue drains or the clock passes ``until``.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is left at ``until``.  ``None`` runs to exhaustion.
        check_deadlock:
            When running to exhaustion, raise :class:`DeadlockError` if
            live processes remain blocked after the queue drains.

        Returns
        -------
        float
            The simulated time at which the run stopped.

        Notes
        -----
        The cyclic garbage collector is paused for the length of the run
        and restored on every exit (return or exception); a caller that
        had already disabled it finds it still disabled.  The loop
        allocates millions of short-lived tuples and events per cell,
        which would otherwise trigger a young-generation collection
        every few hundred dispatches — about 7% of a pipeline cell's
        wall time — to find almost nothing: finished processes break
        their one self-cycle (see ``Process._resume``), so a cell leaves
        a fixed amount of cyclic garbage however many CPIs it simulates.
        """
        if not gc.isenabled():
            return self._run(until, check_deadlock)
        gc.disable()
        try:
            return self._run(until, check_deadlock)
        finally:
            gc.enable()

    def _run(self, until: Optional[float], check_deadlock: bool) -> float:
        """The event loop behind :meth:`run`.

        The loop body duplicates :meth:`step`'s pop-and-dispatch logic
        (and :meth:`_advance`) on purpose, and additionally inlines the
        entire ``Process._resume`` cycle into the ``_KIND_RESUME`` arm:
        at hundreds of thousands of resumptions per pipeline cell, the
        eliminated Python frames are a measurable share of total
        runtime.  Any semantic change here must be mirrored in
        :meth:`step` and :meth:`Process._resume` (and vice versa).
        """
        lane = self._lane
        due = self._due
        heap = self._heap
        failures = self._unobserved_failures
        pending = _PENDING
        kres = _KIND_RESUME
        kfire = _KIND_FIRE
        ktimeout = _KIND_TIMEOUT
        kcall = _KIND_CALL
        # The horizon only needs checking when the clock moves: here for
        # a clock already past ``until``, and at each heap pop below.
        # Lane/due pops never advance the clock, so the pop paths carry
        # no per-entry horizon test.
        if until is not None and self._now > until:
            if not lane and not due and not heap:
                return self._now
            self._now = until
            return until
        while True:
            # Pop the (time, seq)-minimal entry (inline of step()).
            if due:
                if lane and lane[0][0] < due[0][0]:
                    _seq, kind, a, b = lane.popleft()
                else:
                    _seq, kind, a, b = due.popleft()
            elif lane:
                _seq, kind, a, b = lane.popleft()
            elif heap:
                # Clock advance (inline of _advance): dispatch the heap
                # minimum directly and queue its equal-time peers as the
                # due batch — exactly what popping it from the due batch
                # would do, since the lane is empty here.
                t = heap[0][0]
                if until is not None and t > until:
                    self._now = until
                    return until
                if len(heap) > self._heap_peak:
                    self._heap_peak = len(heap)
                _t, _seq, kind, a, b = heappop(heap)
                while heap and heap[0][0] == t:
                    due.append(heappop(heap)[1:])
                self._now = t
                self._advances += 1
                if t >= self._monitor_next:
                    self._monitor(t)
            else:
                break

            # Dispatch, most frequent kind first.  The inner loop exists
            # for *resume chaining*: when a dispatch would enqueue a
            # resume entry while the lane and due batch are both empty,
            # that entry would be popped on the very next iteration — so
            # the loop continues straight into it instead (same order,
            # no queue traffic).  Chaining is only legal from a dispatch
            # that cannot have appended an unobserved failure, which
            # holds for both chain sites below.
            while True:
                if kind == kres:
                    # Inline of Process._resume (see its docstring for
                    # the semantics); the method itself still serves
                    # step(), interrupts and _call_soon re-entry.
                    if b is None:
                        value = None
                        exc = None
                    else:
                        a._waiting_on = None
                        if b._ok:
                            value = b._value
                            exc = None
                        else:
                            value = None
                            exc = b._value
                    if a._value is not pending:
                        break
                    try:
                        if exc is None:
                            target = a.generator.send(value)
                        else:
                            target = a.generator.throw(exc)
                    except StopIteration as stop:
                        self._active -= 1
                        if a._value is not pending:
                            raise SimulationError(
                                f"event {a!r} already triggered"
                            ) from None
                        a._value = stop.value
                        a._ok = True
                        cbs = a.callbacks
                        a.callbacks = _SEALED
                        a._on_event_cb = None
                        if cbs:
                            self._seq += 1
                            try:
                                (cb,) = cbs
                                if cb.__func__ is _PROCESS_ON_EVENT:
                                    lane.append((self._seq, kres, cb.__self__, a))
                                    cbs = None
                            except (ValueError, AttributeError):
                                pass
                            if cbs is not None:
                                lane.append((self._seq, kfire, a, cbs))
                        break
                    except BaseException as perr:  # generator raised: fail the process
                        self._active -= 1
                        had_waiters = bool(a.callbacks)
                        a.fail(perr)
                        a._on_event_cb = None
                        if not had_waiters:
                            failures.append(perr)
                        break
                    try:
                        target_pending = target._value is pending
                    except AttributeError:
                        # Not an Event: surface the bug at the
                        # offending yield with a clear traceback.
                        self._call_soon(
                            a._resume,
                            None,
                            SimulationError(
                                f"process {a.name!r} yielded non-event {target!r}"
                            ),
                        )
                        break
                    a._waiting_on = target
                    if target_pending:
                        target.callbacks.append(a._on_event_cb)
                        break
                    if lane or due:
                        self._seq += 1
                        lane.append((self._seq, kres, a, target))
                        break
                    b = target  # chain: resume with the fired event's outcome
                elif kind == ktimeout:
                    if a._value is not pending:
                        raise SimulationError(f"event {a!r} already triggered")
                    a._value = b
                    a._ok = True
                    cbs = a.callbacks
                    a.callbacks = _SEALED
                    if not cbs:
                        break
                    try:
                        (cb,) = cbs
                        if cb.__func__ is _PROCESS_ON_EVENT:
                            if lane or due:
                                self._seq += 1
                                lane.append((self._seq, kres, cb.__self__, a))
                                break
                            # Chain: the sole waiter's resume entry would
                            # be the only queued entry.
                            kind = kres
                            b = a
                            a = cb.__self__
                            continue
                    except (ValueError, AttributeError):
                        pass
                    self._seq += 1
                    lane.append((self._seq, kfire, a, cbs))
                    break
                elif kind == kfire:
                    for cb in b:
                        cb(a)
                    break
                elif kind == kcall:
                    a(*b)
                    break
                else:  # _KIND_RAW
                    a()
                    break

            if failures:
                raise failures[0]
        if until is not None:
            self._now = max(self._now, until)
        if check_deadlock and until is None and self._active > 0:
            raise DeadlockError(
                f"event queue drained with {self._active} process(es) still blocked"
            )
        return self._now

    def peek(self) -> Optional[float]:
        """Time of the next scheduled action, or None if queue is empty."""
        if self._lane or self._due:
            return self._now
        if self._heap:
            return self._heap[0][0]
        return None


# Bottom import: the fire-site specialization above needs the identity of
# Process._on_event; process.py depends only on events.py, so this is
# acyclic (see note near the top of the module).
from repro.sim.process import Process as _Process  # noqa: E402

_PROCESS_ON_EVENT = _Process._on_event
