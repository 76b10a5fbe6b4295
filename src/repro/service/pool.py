"""Persistent worker pools for the experiment scheduler.

Two implementations of one small contract:

* :class:`InlinePool` — zero processes; tasks execute synchronously in
  the dispatcher thread.  This is the ``jobs=1`` path: same results,
  single-stepped in a debugger, no fork in sight.
* :class:`ProcessPool` — N long-lived worker processes, spawned once
  and reused across jobs (cold-start cost is paid once per service, not
  once per sweep).  Each worker is fed over its **own** duplex pipe, so
  the parent always knows exactly which task a worker held — when a
  worker dies (OOM kill, segfault, operator ``kill -9``) the pool
  reports the orphaned task for rescheduling and respawns a
  replacement.  A shared queue could not attribute the loss.

Workers resolve their entry point from an ``"module.path:function"``
import string (see :class:`~repro.service.model.TaskSpec`), so payloads
stay plain JSON-able dicts and nothing code-shaped ever crosses the
pipe.  Both pools report a result as a
:class:`~repro.service.model.ResultPayload`: a process worker sends the
JSON text it encoded once, the inline pool the dict its runner returned.

Dispatch (:meth:`submit` / :meth:`poll`) belongs to the scheduler's
dispatcher thread alone, but cancellation arrives on client threads:
``Scheduler.cancel()`` / ``shutdown()`` call :meth:`worker_for_task` /
:meth:`kill_worker` while the dispatcher may be mid-:meth:`poll`, so the
worker table is guarded by its own lock (never held across a blocking
wait or a process join).
"""

from __future__ import annotations

import importlib
import pickle
import socket
import threading
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError, ServiceError
from repro.service.model import ResultPayload
from repro.service.tasks import ENGINE_MODULES

__all__ = [
    "PoolEvent",
    "InlinePool",
    "ProcessPool",
    "resolve_runner",
]


def resolve_runner(name: str) -> Callable[[dict], dict]:
    """Import a ``"module.path:function"`` task entry point."""
    module_name, _, attr = name.partition(":")
    if not module_name or not attr:
        raise ConfigurationError(
            f"task runner must be 'module.path:function', got {name!r}"
        )
    fn = getattr(importlib.import_module(module_name), attr, None)
    if not callable(fn):
        raise ConfigurationError(
            f"task runner {name!r} does not name a callable"
        )
    return fn


@dataclass(frozen=True)
class PoolEvent:
    """One thing that happened in the pool since the last poll.

    ``kind`` is one of:

    * ``"done"`` — ``task_id`` finished; ``result`` is its
      :class:`~repro.service.model.ResultPayload`;
    * ``"error"`` — the task raised; ``error`` is the (re-hydrated)
      exception;
    * ``"died"`` — the worker process exited without reporting;
      ``task_id`` is the task it held (reschedule it).
    """

    kind: str
    task_id: str
    worker_id: int
    result: Optional[ResultPayload] = None
    error: Optional[BaseException] = None


class InlinePool:
    """Synchronous in-thread execution behind the pool contract."""

    size = 0

    def __init__(self) -> None:
        self._events: List[PoolEvent] = []
        self._wake = threading.Event()

    @property
    def free(self) -> int:
        # The dispatcher thread *is* the worker: accept one task, run
        # it to completion, report it at the next poll.
        return 1 if not self._events else 0

    def submit(self, task_id: str, runner: str, payload: dict) -> int:
        try:
            result = resolve_runner(runner)(payload)
        except BaseException as exc:  # noqa: BLE001 - reported, not hidden
            self._events.append(
                PoolEvent("error", task_id, worker_id=0, error=exc)
            )
        else:
            self._events.append(PoolEvent("done", task_id, worker_id=0,
                                          result=ResultPayload(result)))
        return 0

    def poll(self, timeout: float = 0.0) -> List[PoolEvent]:
        if not self._events and timeout:
            self._wake.wait(timeout)
            self._wake.clear()
        events, self._events = self._events, []
        return events

    def worker_pids(self) -> List[int]:
        return []

    def kill_worker(self, worker_id: int) -> None:  # pragma: no cover
        raise ServiceError("inline pool has no workers to kill")

    def wakeup(self) -> None:
        """Unblock a concurrent :meth:`poll` (called from any thread)."""
        self._wake.set()

    def shutdown(self) -> None:
        self._events.clear()
        self._wake.set()


def _worker_main(conn, worker_id: int) -> None:
    """Worker process loop: recv (task_id, runner, payload), send back
    (task_id, "done"|"error", encoded_result_or_pickled_exc, tb).

    A result crosses the pipe once, as its JSON text with its summary
    (:meth:`ResultPayload.encoded`): the parent forwards that text and
    never unpickles a decoded copy."""
    # Workers must not inherit the parent's signal-driven shutdown: a
    # Ctrl-C against the service is handled by the scheduler, which
    # shuts workers down explicitly (or they die and are respawned).
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # The parent holds no simulator: load it before the first task.
    for name in ENGINE_MODULES:
        importlib.import_module(name)
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            break
        if item is None:
            break
        task_id, runner, payload = item
        try:
            result = ResultPayload.encoded(resolve_runner(runner)(payload))
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            try:
                conn.send((task_id, "error", blob, traceback.format_exc()))
            except (BrokenPipeError, OSError):
                break
        else:
            try:
                conn.send((task_id, "done", result, ""))
            except (BrokenPipeError, OSError):
                break
    conn.close()


class _Worker:
    """A live worker process plus the parent's end of its pipe."""

    def __init__(self, worker_id: int, ctx) -> None:
        self.id = worker_id
        self.conn, child_conn = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, worker_id),
            name=f"repro-worker-{worker_id}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        #: Task currently dispatched to this worker, if any.
        self.task_id: Optional[str] = None

    @property
    def busy(self) -> bool:
        return self.task_id is not None

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


class ProcessPool:
    """``size`` persistent worker processes with death detection."""

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ConfigurationError(f"pool size must be >= 1, got {size}")
        # Only a process pool needs multiprocessing: the inline pool's
        # users never import it.
        import multiprocessing.connection

        self.size = size
        self._ctx = multiprocessing.get_context()
        self._wait = multiprocessing.connection.wait
        self._next_worker_id = 0
        #: Guards ``_workers`` against the dispatcher's poll-time
        #: mutations (death del + respawn insert) racing client-thread
        #: cancellation reads (worker_for_task / kill_worker).
        self._lock = threading.RLock()
        self._workers: Dict[int, _Worker] = {}
        #: Cross-thread wakeup: ``wakeup()`` (any thread) makes a
        #: blocked :meth:`poll` return immediately.
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        #: Total workers respawned after a death (observability).
        self.respawns = 0
        for _ in range(size):
            self._spawn()

    # -- lifecycle ---------------------------------------------------------
    def _spawn(self) -> _Worker:
        worker = _Worker(self._next_worker_id, self._ctx)
        self._next_worker_id += 1
        with self._lock:
            self._workers[worker.id] = worker
        return worker

    def shutdown(self, timeout: float = 2.0) -> None:
        """Stop every worker: polite sentinel first, then terminate."""
        with self._lock:
            workers = list(self._workers.values())
            self._workers.clear()
        for w in workers:
            try:
                w.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for w in workers:
            w.proc.join(timeout=timeout)
            if w.proc.is_alive():
                w.proc.terminate()
                w.proc.join(timeout=timeout)
            w.close()
        self._wake_recv.close()
        self._wake_send.close()

    # -- dispatch ----------------------------------------------------------
    @property
    def free(self) -> int:
        with self._lock:
            return sum(1 for w in self._workers.values() if not w.busy)

    def submit(self, task_id: str, runner: str, payload: dict) -> int:
        """Dispatch to a free worker; returns its worker id."""
        with self._lock:
            for w in self._workers.values():
                if not w.busy:
                    w.conn.send((task_id, runner, payload))
                    w.task_id = task_id
                    return w.id
        raise ServiceError("submit() with no free worker")  # scheduler bug

    def worker_pids(self) -> List[int]:
        """PIDs of live workers (test hook for kill-a-worker drills)."""
        with self._lock:
            return [w.proc.pid for w in self._workers.values() if w.proc.pid]

    def worker_for_task(self, task_id: str) -> Optional[int]:
        with self._lock:
            for w in self._workers.values():
                if w.task_id == task_id:
                    return w.id
        return None

    def kill_worker(self, worker_id: int) -> None:
        """Hard-stop one worker (cancellation of its in-flight task).

        The kill surfaces as a ``"died"`` event at the next poll; the
        scheduler decides whether the orphaned task is rescheduled
        (worker death) or dropped (it was cancelled).
        """
        with self._lock:
            w = self._workers.get(worker_id)
        if w is not None and w.proc.is_alive():
            w.proc.terminate()

    def wakeup(self) -> None:
        """Unblock a concurrent :meth:`poll` (called from any thread)."""
        try:
            self._wake_send.send(b"x")
        except OSError:  # pragma: no cover - racing shutdown
            pass

    # -- events ------------------------------------------------------------
    def poll(self, timeout: float = 0.0) -> List[PoolEvent]:
        """Collect completions and deaths, waiting up to ``timeout``."""
        events: List[PoolEvent] = []
        with self._lock:
            conns = {w.conn: w for w in self._workers.values() if w.busy}
            sentinels = {w.proc.sentinel: w for w in self._workers.values()}
        waitables: List[Any] = list(conns) + list(sentinels) + [self._wake_recv]
        ready = self._wait(waitables, timeout=timeout)
        dead: List[_Worker] = []
        for obj in ready:
            if obj is self._wake_recv:
                try:
                    while self._wake_recv.recv(4096):
                        pass
                except BlockingIOError:
                    pass
                continue
            worker = conns.get(obj)
            if worker is not None:
                try:
                    task_id, kind, blob, tb = worker.conn.recv()
                except (EOFError, OSError):
                    # Pipe broke mid-result: treat as a death below.
                    continue
                worker.task_id = None
                if kind == "done":
                    events.append(
                        PoolEvent("done", task_id, worker.id, result=blob)
                    )
                else:
                    error = None
                    if blob is not None:
                        try:
                            error = pickle.loads(blob)
                        except Exception:
                            error = None
                    if error is None:
                        error = ServiceError(
                            f"task {task_id} failed in worker "
                            f"{worker.id}:\n{tb}"
                        )
                    events.append(
                        PoolEvent("error", task_id, worker.id, error=error)
                    )
        # Death detection second: a worker whose result we just consumed
        # has task_id None and its exit (if any) is not a task loss.
        with self._lock:
            for sentinel, worker in sentinels.items():
                if not worker.proc.is_alive() and worker.id in self._workers:
                    dead.append(worker)
                    del self._workers[worker.id]
        for worker in dead:
            orphan = worker.task_id
            worker.proc.join(timeout=0.5)
            worker.close()
            self.respawns += 1
            self._spawn()
            if orphan is not None:
                events.append(PoolEvent("died", orphan, worker.id))
        return events
