"""Bounded event feed over scheduler state transitions.

The :class:`~repro.service.scheduler.ExperimentScheduler` emits one
plain-dict event per job/task transition and per delivered result
(see ``ExperimentScheduler.add_listener``).  :class:`EventFeed` is the
standard consumer: a bounded ring buffer that stamps each event with a
monotonically increasing sequence number and a wall-clock time, and
supports cursor-based reads (``since``) and long-polling (``wait``) —
the primitives both the TCP ``events`` op and the dashboard's SSE
stream are built from.

Producers never block: ``record`` appends under a condition variable
and returns.  A consumer that falls more than ``maxlen`` events behind
simply misses the overwritten prefix — its next read reports the gap
via the returned ``next`` cursor jumping forward, and fleet-level
consumers (the dashboard) recover by re-reading ``jobs()`` snapshots.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["EventFeed"]


class EventFeed:
    """Ring buffer of scheduler events with sequence cursors."""

    def __init__(self, maxlen: int = 4096) -> None:
        self._cond = threading.Condition()
        self._events: Deque[Dict[str, Any]] = deque(maxlen=maxlen)
        self._seq = 0

    def record(self, event: Dict[str, Any]) -> None:
        """Stamp and append one event (the scheduler-listener hook).

        Safe to call from any thread, including under the scheduler's
        lock: appending to a bounded deque and notifying waiters is the
        entire critical section.
        """
        with self._cond:
            self._seq += 1
            stamped = dict(event)
            stamped["seq"] = self._seq
            stamped["time"] = time.time()
            self._events.append(stamped)
            self._cond.notify_all()

    @property
    def last_seq(self) -> int:
        with self._cond:
            return self._seq

    def since(
        self, after: int = 0, limit: Optional[int] = None
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Events with ``seq > after`` (oldest first) and the new cursor.

        The cursor is the last sequence number *seen or skipped*: when
        the requested range has been overwritten, the cursor still
        advances past the gap, so a slow consumer converges instead of
        re-requesting evicted history forever.
        """
        with self._cond:
            out = [e for e in self._events if e["seq"] > after]
            if limit is not None and len(out) > limit:
                out = out[:limit]
            cursor = out[-1]["seq"] if out else max(after, self._seq)
            return out, cursor

    def wait(
        self,
        after: int = 0,
        timeout: float = 10.0,
        limit: Optional[int] = None,
    ) -> Tuple[List[Dict[str, Any]], int]:
        """Long-poll variant of :meth:`since`: block up to ``timeout``
        seconds for at least one event past the cursor."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._seq <= after:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
        return self.since(after, limit)

    def attach(self, scheduler) -> "EventFeed":
        """Subscribe this feed to a scheduler's event stream; returns
        self for chaining (``EventFeed().attach(sched)``)."""
        scheduler.add_listener(self.record)
        return self
