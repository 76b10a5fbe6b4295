"""Streaming result delivery: cells flow back as they land.

A :class:`JobHandle` is the client's view of a submitted job.  Its
:meth:`~JobHandle.results` iterator yields one :class:`CellResult` per
*distinct* cell in completion order, as the scheduler finishes them —
a client sees the first cell while later cells are still executing (or
not yet dispatched).  :meth:`~JobHandle.wait` drains the stream and
returns results ordered by submission index, duplicates aliased, which
is the sweep-shaped surface :class:`~repro.bench.engine.SweepRunner`
uses.

Backpressure is *dispatch-side*: the scheduler stops dispatching new
tasks for a job once ``undelivered`` (cells completed but not yet
consumed from the stream) reaches the scheduler's ``backpressure``
limit.  A slow consumer therefore throttles **its own** job's progress
— never the delivery of other clients' results — and the queue between
scheduler and client stays bounded without any thread ever blocking on
a ``put``.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional

from repro.errors import JobCancelledError

from repro.service.model import Job, ResultPayload, State

__all__ = ["CellResult", "JobHandle"]

#: Stream sentinel kinds.
_RESULT = "result"
_DONE = "done"
_FAILED = "failed"
_CANCELLED = "cancelled"


@dataclass(frozen=True)
class CellResult:
    """One completed cell, as streamed back to the client.

    ``source`` says how the cell was satisfied: ``"executed"`` (a task
    of this job simulated it), ``"cache"`` (shared-store hit at
    submission), ``"deduped"`` (subscribed to another job's
    in-flight task), or ``"predicted"`` (answered at submission by the
    analytic surrogate, :mod:`repro.bench.surrogate`, with an error
    bound in the payload).  ``index`` is the cell's position in the
    submitted batch (first occurrence for duplicates).

    ``result`` holds the cell's two views: :attr:`payload`, the result
    dict, and :attr:`text`, its JSON text.  A process worker's result
    arrives as text, decoded on the first :attr:`payload` read.
    """

    index: int
    key: str
    result: ResultPayload
    source: str

    @property
    def payload(self) -> Dict[str, Any]:
        """The result dict."""
        return self.result.data

    @property
    def text(self) -> str:
        """The result's JSON text."""
        return self.result.text


class JobHandle:
    """Client-side handle: stream, wait, cancel, inspect."""

    def __init__(self, job: Job, scheduler) -> None:
        self.job = job
        self._scheduler = scheduler
        self._queue: "queue.Queue" = queue.Queue()
        #: Completed-but-unconsumed cells; the scheduler reads this to
        #: apply dispatch-side backpressure.
        self.undelivered = 0
        self._lock = threading.Lock()
        #: Fire-and-forget mode: results neither queue nor count toward
        #: backpressure (see :meth:`detach`).
        self._detached = False
        #: ``(kind, error)`` of the consumed terminal event, so a second
        #: results()/wait() call replays the outcome instead of blocking
        #: forever on the already-drained queue.
        self._terminal: Optional[tuple] = None

    # -- scheduler side ----------------------------------------------------
    def _push(self, kind: str, item: Optional[CellResult] = None,
              error: Optional[BaseException] = None) -> None:
        with self._lock:
            if kind == _RESULT:
                if self._detached:
                    # Nobody will ever drain this stream; the payload is
                    # already in job.results_by_index (and the store).
                    return
                self.undelivered += 1
        self._queue.put((kind, item, error))

    def detach(self) -> None:
        """Switch to fire-and-forget: stop queueing streamed results and
        stop counting them toward dispatch-side backpressure.

        Used for submissions nobody follows (``repro submit`` without
        ``--follow``): without this, ``undelivered`` would only grow
        until the scheduler stopped dispatching the job.  Results remain
        available through ``job.results_by_index`` / the shared store;
        terminal events still queue, so a later :meth:`wait` returns
        (or raises) correctly.  Idempotent.
        """
        with self._lock:
            if self._detached:
                return
            self._detached = True
            self.undelivered = 0
            # Drop buffered results, keeping any terminal event.
            buffered = []
            try:
                while True:
                    buffered.append(self._queue.get_nowait())
            except queue.Empty:
                pass
            for kind, item, error in buffered:
                if kind != _RESULT:
                    self._queue.put((kind, item, error))
        # The job may already be backpressure-paused; let it resume.
        self._scheduler._on_delivered()

    # -- client side -------------------------------------------------------
    @property
    def id(self) -> str:
        return self.job.id

    @property
    def state(self) -> State:
        return self.job.state

    @property
    def counters(self) -> Dict[str, int]:
        return self.job.counters.to_dict()

    def cancel(self) -> bool:
        """Cancel the job (idempotent); True if anything was cancelled."""
        return self._scheduler.cancel(self.job.id)

    def results(self, timeout: Optional[float] = None) -> Iterator[CellResult]:
        """Yield distinct cells in completion order, as they land.

        Raises the job's failure (original exception when available) or
        :class:`~repro.errors.JobCancelledError` on cancellation.  A
        ``timeout`` bounds the wait for *each* cell.

        Once the stream has been drained to its terminal event, further
        calls replay the outcome immediately (an empty iterator for a
        finished job, the same exception otherwise) rather than blocking
        on the empty queue.
        """
        with self._lock:
            terminal = self._terminal
        if terminal is not None:
            self._finish(*terminal)
            return
        while True:
            kind, item, error = self._queue.get(timeout=timeout)
            if kind == _RESULT:
                with self._lock:
                    self.undelivered -= 1
                self._scheduler._on_delivered()
                yield item
            else:
                with self._lock:
                    self._terminal = (kind, error)
                self._finish(kind, error)
                return

    def _finish(self, kind: str, error: Optional[BaseException]) -> None:
        """Raise (or return, for a clean finish) a terminal event."""
        if kind == _DONE:
            return
        if kind == _CANCELLED:
            raise JobCancelledError(f"job {self.job.id} was cancelled")
        # _FAILED
        raise error if error is not None else JobCancelledError(
            f"job {self.job.id} failed"
        )

    def wait(self, timeout: Optional[float] = None) -> List[Dict[str, Any]]:
        """Block until done; results ordered by submission index.

        Duplicate submissions alias the first occurrence's payload, so
        the returned list always has one entry per submitted cell.
        """
        for _ in self.results(timeout=timeout):
            pass
        by_index = self.job.results_by_index
        return [by_index[i].data for i in range(self.job.n_cells)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<JobHandle {self.job.id} {self.job.state.value}>"
