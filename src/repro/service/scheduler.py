"""The experiment scheduler: many clients, one worker pool, one cache.

:class:`ExperimentScheduler` is a long-running, in-process service that
accepts :class:`~repro.bench.engine.ExperimentSpec` batches from any
number of concurrent clients and executes them as **job → task** over
a persistent worker pool:

* **Eager dispatch** — a task runs as soon as a worker is free; the
  pool never drains between jobs (workers spawn once per scheduler).
* **Fair queueing** — ready tasks are drawn round-robin across clients,
  so a 1000-cell sweep cannot starve a 2-cell interactive submission.
* **Shared cache tier** — the content-addressed
  :class:`~repro.bench.store.ResultStore` is probed at submission
  (identical cells from different clients dedupe to one execution) and
  written as cells land, so partial progress survives interruption.
* **In-flight dedupe** — a submission whose cell is *currently
  executing* for another job subscribes to that task's completion
  instead of re-running it.
* **Streaming with backpressure** — results flow back through each
  job's :class:`~repro.service.streaming.JobHandle` in completion
  order; a job whose client stops consuming stops being dispatched
  (never blocking other clients' deliveries).
* **Cancellation** — job → task; queued tasks never dispatch,
  in-flight process tasks are interrupted by terminating their worker
  (atomic store writes make any interruption point safe; the pool
  respawns a replacement), in-flight inline tasks stop at the next task
  boundary.  A cancelled job's tasks that other jobs subscribed to keep
  running under transferred ownership.
* **Retry on worker death** — a SIGKILLed/crashed worker fails neither
  its task nor the job: the orphaned task is rescheduled (up to
  ``max_task_retries`` times) at the front of its client's queue.
* **Bounded memory** — a job that ends drops to its ``describe()``
  summary at once; its result payloads live only as long as the
  client's :class:`~repro.service.streaming.JobHandle`, and the store
  is where finished results persist.
* **One encoding per result** — a process worker's result arrives as
  the JSON text the worker encoded
  (:class:`~repro.service.model.ResultPayload`); the scheduler holds
  that text, the store and the TCP server splice it into what they
  write, and a dict is built only for an in-process reader.

All scheduling state is owned by one dispatcher thread; client-facing
methods only enqueue work and read snapshots under ``self._lock``.
"""

from __future__ import annotations

import threading
from collections import deque
from itertools import islice
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, ServiceError
from repro.obs.service import ServiceMetrics
from repro.service.model import Job, ResultPayload, State, Task, TaskSpec
from repro.service.pool import InlinePool, PoolEvent, ProcessPool
from repro.service.streaming import CellResult, JobHandle
from repro.service.tasks import RUN_SPEC_RUNNER

__all__ = ["ExperimentScheduler"]

#: Default cap on completed-but-unconsumed cells per job before its
#: dispatch is paused (see streaming docs).
DEFAULT_BACKPRESSURE = 64

#: Cap on finished-job snapshots kept for ``repro jobs list``.
_ARCHIVE_CAP = 4096

#: Longest the dispatcher sleeps in a pool poll; a wakeup (submit,
#: cancel, delivery) ends the sleep early.
_POLL_INTERVAL = 0.25


class ExperimentScheduler:
    """Job/task scheduler over a persistent worker pool.

    Parameters
    ----------
    workers:
        Worker processes.  ``0`` executes tasks inline in the
        dispatcher thread (the debuggable ``jobs=1`` path); ``N >= 1``
        spawns N persistent processes reused across all jobs.
    store:
        Optional shared :class:`~repro.bench.store.ResultStore` cache
        tier: probed per distinct cell at submission, written as cells
        complete (first write wins).
    metrics:
        A :class:`~repro.obs.service.ServiceMetrics` to record into;
        one is created when omitted (exposed as :attr:`metrics`).
    backpressure:
        Per-job cap on undelivered streamed results before dispatch of
        that job pauses.
    max_task_retries:
        Worker-death reschedules allowed per task before the job fails.
    """

    def __init__(
        self,
        *,
        workers: int = 0,
        store=None,
        metrics: Optional[ServiceMetrics] = None,
        backpressure: int = DEFAULT_BACKPRESSURE,
        max_task_retries: int = 3,
    ) -> None:
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        if backpressure < 1:
            raise ConfigurationError(
                f"backpressure must be >= 1, got {backpressure}"
            )
        self.workers = workers
        self.store = store
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.backpressure = backpressure
        self.max_task_retries = max_task_retries
        self._pool = InlinePool() if workers == 0 else ProcessPool(workers)
        self._pool_respawns_seen = 0

        self._lock = threading.RLock()
        #: Event listeners (see :meth:`add_listener`); no-overhead when
        #: empty — ``_emit`` short-circuits before building the event.
        self._listeners: List[Any] = []
        #: Live (non-terminal) jobs' handles; ``handle.job`` is the job.
        self._live: Dict[str, JobHandle] = {}
        #: Every job in submission order: None while it is live, its
        #: describe() snapshot once it ended (oldest snapshots dropped
        #: past ``_ARCHIVE_CAP``).
        self._archive: Dict[str, Optional[Dict[str, Any]]] = {}
        #: key -> live (non-terminal) task computing that cell.
        self._inflight: Dict[str, Task] = {}
        #: per-client FIFO of ready tasks (fair round-robin source).
        self._ready: Dict[str, Deque[Task]] = {}
        self._clients: List[str] = []
        self._rr_index = 0
        #: task id -> dispatched task awaiting a pool event.
        self._running: Dict[str, Task] = {}

        self._stop = False
        #: Why submissions are refused (shut down or crashed), or None.
        self._closed: Optional[str] = None
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-service-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # -- event stream ------------------------------------------------------
    def add_listener(self, fn) -> None:
        """Call ``fn(event_dict)`` on every job/task transition and
        delivered result.

        Listeners run on whichever thread drove the transition — often
        the dispatcher, often *under the scheduler lock* — so they must
        be nonblocking and must not call back into the scheduler.
        Append to a queue or an :class:`~repro.service.events.EventFeed`
        and do real work elsewhere.  Listener exceptions are swallowed:
        observability must never fail a job.
        """
        with self._lock:
            self._listeners.append(fn)

    def _emit(self, event: str, **fields: Any) -> None:
        if not self._listeners:
            return
        payload = {"event": event, **fields}
        for fn in list(self._listeners):
            try:
                fn(payload)
            except Exception:  # noqa: BLE001 - see add_listener docs
                pass

    def _emit_job_locked(self, job: Job) -> None:
        self._emit(
            "job",
            **job.describe(),
            results=len(job.results_by_index),
        )

    def _emit_result_locked(
        self, job: Job, index: int, key: str, payload: ResultPayload,
        source: str,
    ) -> None:
        if not self._listeners:
            return
        self._emit(
            "result",
            job=job.id,
            index=index,
            key=key,
            source=source,
            throughput=payload.throughput,
            latency=payload.latency,
            result_source=payload.source,
        )

    # -- client surface ----------------------------------------------------
    def submit(
        self,
        specs: Sequence[Any],
        client: str = "default",
        label: str = "",
    ) -> JobHandle:
        """Submit one batch of spec cells as a job; returns its
        streaming :class:`JobHandle`.

        Experiment cells and scenarios mix freely: every cell runs on
        :func:`~repro.service.tasks.run_spec_payload`."""
        cells = [
            TaskSpec(
                key=spec.spec_hash(),
                payload=spec.to_dict(),
                runner=RUN_SPEC_RUNNER,
                spec=spec,
                label=spec.label(),
            )
            for spec in specs
        ]
        return self.submit_tasks(cells, client=client, label=label)

    def submit_tasks(
        self,
        cells: Sequence[TaskSpec],
        client: str = "default",
        label: str = "",
    ) -> JobHandle:
        """Submit one job of independent task cells, indexed in
        submission order; returns its streaming :class:`JobHandle`."""
        if self._closed:
            raise ServiceError(self._closed)
        if not cells:
            raise ConfigurationError("a job needs at least one task")
        job = Job(client, len(cells), label=label)
        handle = JobHandle(job, self)

        # Store probes and surrogate screening happen outside the lock:
        # they are file reads and model evaluations and must not stall
        # the dispatcher or other submitters.
        predictions = self._screen_cells(cells)
        cached: Dict[int, ResultPayload] = {}
        if self.store is not None:
            probed = set()
            for index, cell in enumerate(cells):
                # A duplicate aliases its first occurrence: probe once.
                if cell.key in probed:
                    continue
                probed.add(cell.key)
                if index in predictions or cell.spec is None:
                    continue
                hit = self.store.get_dict(cell.spec)
                # A stored prediction never satisfies a request for a
                # full simulation.
                if hit is not None and hit.get("source") != "predicted":
                    cached[index] = ResultPayload(hit)

        with self._lock:
            # Shutdown or a crash may have closed us during the probes.
            if self._closed:
                raise ServiceError(self._closed)
            self._live[job.id] = handle
            self._archive[job.id] = None
            if client not in self._ready:
                self._ready[client] = deque()
                self._clients.append(client)
            self.metrics.jobs_submitted.inc()
            for index, cell in enumerate(cells):
                self._admit_cell(job, index, cell, cached.get(index),
                                 predictions.get(index))
            job.signal(State.RUNNING)
            self._emit_job_locked(job)
            dq = self._ready[client]
            dq.extend(job.tasks)
            self.metrics.queue_depth(client).set(len(dq))
            self._advance_job_locked(job)
        self._wake()
        return handle

    def cancel(self, job_id: str) -> bool:
        """Cancel a job: pending tasks never dispatch, in-flight tasks
        are interrupted, dedupe subscribers of other jobs keep the
        shared tasks alive.  Returns False if already terminal."""
        with self._lock:
            handle = self._live.get(job_id)
            if handle is None:
                return False
            self._cancel_job_locked(handle.job)
        self._wake()
        return True

    def jobs(self) -> List[Dict[str, Any]]:
        """Snapshot of every job, newest submission last (for ``repro
        jobs list``).

        Finished jobs appear as their frozen terminal snapshots."""
        with self._lock:
            return [
                snap if snap is not None else self._live[job_id].job.describe()
                for job_id, snap in self._archive.items()
            ]

    def job(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            handle = self._live.get(job_id)
            if handle is not None:
                return handle.job.describe()
            return self._archive.get(job_id)

    def handle(self, job_id: str) -> Optional[JobHandle]:
        """A live job's handle; None once the job has ended."""
        with self._lock:
            return self._live.get(job_id)

    def worker_pids(self) -> List[int]:
        """Live worker PIDs (empty for the inline pool)."""
        return self._pool.worker_pids()

    @property
    def tasks_in_flight(self) -> int:
        with self._lock:
            return len(self._running)

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop dispatching, cancel live jobs, and stop the workers."""
        with self._lock:
            if self._stop:
                return
            self._closed = self._closed or "scheduler is shut down"
            for handle in list(self._live.values()):
                self._cancel_job_locked(handle.job)
            self._stop = True
        self._wake()
        self._dispatcher.join(timeout=timeout)
        self._pool.shutdown()

    def __enter__(self) -> "ExperimentScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # -- submission internals ----------------------------------------------
    def _screen_cells(
        self, cells: Sequence[TaskSpec],
    ) -> Dict[int, ResultPayload]:
        """Surrogate-screen one job's cells (prepared phase, unlocked).

        Cells whose spec opted into screening (``spec.screening != "off"``)
        are planned per mode — the crossover check compares sibling
        strategies within the batch, so each mode's cells form one plan.
        Returns ``{position: predicted result}`` for the cells the
        screen decided to answer from the model; everything else (and
        every cell with ``screening="off"``) proceeds through the normal
        cache-probe/execute path untouched.  Predicted results are
        written to the store as ``source="predicted"`` placeholders (a
        later simulation of the same spec upgrades them).
        """
        by_mode: Dict[str, List[int]] = {}
        for pos, cell in enumerate(cells):
            mode = getattr(cell.spec, "screening", "off")
            if cell.spec is not None and mode != "off":
                by_mode.setdefault(mode, []).append(pos)
        if not by_mode:
            return {}

        from repro.bench.surrogate import SurrogateScreen, predicted_result

        screen = SurrogateScreen(self.store)
        out: Dict[int, ResultPayload] = {}
        for mode, positions in by_mode.items():
            plan = screen.plan([cells[p].spec for p in positions], mode)
            for decision in plan.decisions:
                if decision.action != "predict":
                    continue
                pos = positions[decision.index]
                spec = cells[pos].spec
                if self.store is not None:
                    cached = self.store.get_dict(spec)
                    if cached is not None and cached.get("source") != "predicted":
                        # A simulation is already cached — strictly
                        # better than any prediction; let the normal
                        # cache-probe path serve it.
                        continue
                payload = predicted_result(spec, decision.prediction).to_dict()
                out[pos] = ResultPayload(payload)
                if self.store is not None:
                    self.store.put_dict(spec, payload)
        return out

    def _admit_cell(
        self,
        job: Job,
        index: int,
        cell: TaskSpec,
        cached: Optional[ResultPayload],
        predicted: Optional[ResultPayload],
    ) -> None:
        first = job.first_index_by_key.get(cell.key)
        if first is not None:
            # Intra-job duplicate: alias the first occurrence.
            if first in job.results_by_index:
                job.results_by_index[index] = job.results_by_index[first]
            else:
                job.alias_map.setdefault(first, []).append(index)
            return
        job.first_index_by_key[cell.key] = index

        if predicted is not None:
            job.counters.predicted += 1
            self.metrics.predicted.inc()
            self._deliver_locked(job, index, cell.key, predicted, "predicted")
            return

        if cached is not None:
            job.counters.cache_hits += 1
            self.metrics.cache_hits.inc()
            self._deliver_locked(job, index, cell.key, cached, "cache")
            return

        job.counters.cache_misses += 1
        self.metrics.cache_misses.inc()

        inflight = self._inflight.get(cell.key)
        if inflight is not None:
            # In-flight dedupe: subscribe to the existing task instead
            # of executing the same cell twice.
            inflight.subscribers.append((job, index))
            job.pending_keys[cell.key] = index
            job.counters.deduped += 1
            self.metrics.dedupe_hits.inc()
            return

        task = Task(cell, job)
        task.subscribers.append((job, index))
        job.tasks.append(task)
        self._inflight[cell.key] = task

    # -- job advancement (locked) ------------------------------------------
    def _advance_job_locked(self, job: Job) -> None:
        """Finish the job once every task and subscription settled."""
        if job.state.terminal or not job.settled:
            return
        job.signal(State.DONE)
        self.metrics.jobs_completed.inc()
        self._live[job.id]._push("done")
        self._emit_job_locked(job)
        self._retire_job_locked(job)

    # -- retirement (locked) ------------------------------------------------
    def _retire_job_locked(self, job: Job) -> None:
        """A job just went terminal: keep only its describe() snapshot.

        The scheduler drops the job and its handle at once, so result
        payloads live only as long as the client's handle.  Snapshots
        past ``_ARCHIVE_CAP`` go oldest first; live jobs keep their
        place in the listing."""
        del self._live[job.id]
        self._archive[job.id] = job.describe()
        excess = len(self._archive) - _ARCHIVE_CAP
        if excess > 0:
            ended = (i for i, snap in self._archive.items() if snap is not None)
            for job_id in list(islice(ended, excess)):
                del self._archive[job_id]

    # -- cancellation (locked) ---------------------------------------------
    def _cancel_job_locked(self, job: Job) -> None:
        job.signal(State.CANCELLED)
        self.metrics.jobs_cancelled.inc()
        self._release_job_locked(job)
        self._live[job.id]._push("cancelled")
        self._emit_job_locked(job)
        self._retire_job_locked(job)

    def _release_job_locked(self, job: Job) -> None:
        """Release a job that ended early: its tasks stop (or pass to
        the other jobs subscribed to them), and its dedupe subscriptions
        on other jobs' tasks are dropped."""
        for task in job.tasks:
            self._release_task_locked(job, task)
        for key in job.pending_keys:
            inflight = self._inflight.get(key)
            if inflight is not None:
                inflight.subscribers = [
                    s for s in inflight.subscribers if s[0] is not job
                ]
        job.pending_keys.clear()

    def _release_task_locked(self, job: Job, task: Task) -> None:
        """Cancel one of ``job``'s tasks — unless another job subscribed
        to it, in which case ownership transfers and it keeps running."""
        if task.state.terminal:
            return
        external = [s for s in task.subscribers if s[0] is not job]
        if external:
            task.subscribers = external
            task.owner = None
            return
        task.signal(State.CANCELLED)
        self.metrics.tasks_cancelled.inc()
        self._inflight.pop(task.spec.key, None)
        if task.id in self._running and isinstance(self._pool, ProcessPool):
            # Interrupt in-flight work: hard-stop the worker holding
            # this task (store writes are atomic, so any interruption
            # point is safe); the pool respawns a replacement and the
            # resulting "died" event is swallowed because the task is
            # already terminal.  Inline tasks stop at the task boundary.
            worker_id = self._pool.worker_for_task(task.id)
            if worker_id is not None:
                self._pool.kill_worker(worker_id)

    # -- dispatcher thread --------------------------------------------------
    def _wake(self) -> None:
        self._pool.wakeup()

    def _on_delivered(self) -> None:
        """A client consumed a streamed result: dispatch may resume."""
        self._wake()

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                if self._stop:
                    break
            try:
                self._dispatch_once()
                events = self._pool.poll(timeout=_POLL_INTERVAL)
                for event in events:
                    self._handle_event(event)
                self._sync_pool_metrics()
            except Exception as exc:  # noqa: BLE001 - fail live jobs loudly
                self._crash(exc)
                break

    def _dispatch_once(self) -> None:
        """Fill every free worker from the fair queue."""
        while self._pool.free > 0:
            with self._lock:
                task = self._next_task_locked()
                if task is None:
                    return
                task.attempts += 1
                task.signal(State.RUNNING)
                self._running[task.id] = task
                self.metrics.tasks_in_flight.set(len(self._running))
                self._emit_task_locked(task)
            # Pool interaction happens unlocked: for the inline pool
            # this *is* the task execution, and a long cell must not
            # block submitters or cancellation.
            worker_id = self._pool.submit(
                task.id, task.spec.runner, task.spec.payload
            )
            with self._lock:
                task.worker_id = worker_id

    def _next_task_locked(self) -> Optional[Task]:
        n = len(self._clients)
        for offset in range(n):
            client = self._clients[(self._rr_index + offset) % n]
            dq = self._ready[client]
            while dq and dq[0].state is not State.PENDING:
                dq.popleft()   # cancelled while queued
            if not dq:
                continue
            task = dq[0]
            owner = task.owner
            if owner is not None:
                handle = self._live.get(owner.id)
                if (
                    handle is not None
                    and handle.undelivered >= self.backpressure
                ):
                    continue   # job is backpressured; try other clients
            dq.popleft()
            self.metrics.queue_depth(client).set(len(dq))
            self._rr_index = (self._rr_index + offset + 1) % n
            return task
        return None

    def _emit_task_locked(self, task: Task) -> None:
        owner = task.owner
        self._emit(
            "task",
            job=owner.id if owner is not None else None,
            task=task.id,
            key=task.spec.key,
            label=task.spec.label,
            state=task.state.value,
            attempts=task.attempts,
            retries=task.retries,
        )

    # -- pool events ---------------------------------------------------------
    def _handle_event(self, event: PoolEvent) -> None:
        if event.kind == "done":
            self._on_task_done(event)
        elif event.kind == "error":
            self._on_task_error(event)
        else:
            self._on_worker_died(event)

    def _on_task_done(self, event: PoolEvent) -> None:
        with self._lock:
            task = self._running.pop(event.task_id, None)
            self.metrics.tasks_in_flight.set(len(self._running))
            if task is None or task.state.terminal:
                return   # cancelled while in flight: discard the result
        # Persist before delivery, outside the lock: a crash after this
        # point loses nothing, and file I/O never stalls submitters.  The
        # store splices the payload's text in (a process worker's text
        # as it arrived).
        if self.store is not None and task.spec.spec is not None:
            self.store.put_dict(task.spec.spec, event.result)
        with self._lock:
            if task.state.terminal:
                return
            task.result = event.result
            task.signal(State.DONE)
            self._emit_task_locked(task)
            self.metrics.tasks_completed.inc()
            self._inflight.pop(task.spec.key, None)
            touched = []
            for job, index in task.subscribers:
                if job.state.terminal:
                    continue
                source = "executed" if job is task.owner else "deduped"
                if job is task.owner:
                    job.counters.executed += 1
                job.pending_keys.pop(task.spec.key, None)
                self._deliver_locked(job, index, task.spec.key,
                                     event.result, source)
                touched.append(job)
            for job in touched:
                self._advance_job_locked(job)

    def _deliver_locked(self, job: Job, index: int, key: str,
                        payload: ResultPayload, source: str) -> None:
        job.results_by_index[index] = payload
        for dup in job.alias_map.pop(index, []):
            job.results_by_index[dup] = payload
        self._live[job.id]._push(
            "result", CellResult(index, key, payload, source)
        )
        self._emit_result_locked(job, index, key, payload, source)

    def _on_task_error(self, event: PoolEvent) -> None:
        with self._lock:
            task = self._running.pop(event.task_id, None)
            self.metrics.tasks_in_flight.set(len(self._running))
            if task is None or task.state.terminal:
                return
            task.error = event.error
            task.signal(State.FAILED)
            self._emit_task_locked(task)
            self.metrics.tasks_failed.inc()
            self._inflight.pop(task.spec.key, None)
            # A deterministic task failure fails every job that wanted
            # this cell — retrying would fail identically.
            for job, _index in list(task.subscribers):
                self._fail_job_locked(job, event.error)

    def _fail_job_locked(self, job: Job, error: BaseException) -> None:
        if job.state.terminal:
            return
        job.error = error
        self._release_job_locked(job)
        job.signal(State.FAILED)
        self._live[job.id]._push("failed", error=error)
        self._emit_job_locked(job)
        self._retire_job_locked(job)

    def _on_worker_died(self, event: PoolEvent) -> None:
        with self._lock:
            task = self._running.pop(event.task_id, None)
            self.metrics.tasks_in_flight.set(len(self._running))
            if task is None or task.state.terminal:
                return   # the kill was a cancellation interrupt
            task.retries += 1
            self.metrics.task_retries.inc()
            if task.owner is not None:
                task.owner.counters.retries += 1
            if task.retries > self.max_task_retries:
                error = ServiceError(
                    f"task {task.id} ({task.spec.label or task.spec.key[:12]}) "
                    f"lost {task.retries} workers; giving up"
                )
                task.error = error
                task.signal(State.FAILED)
                self._emit_task_locked(task)
                self.metrics.tasks_failed.inc()
                self._inflight.pop(task.spec.key, None)
                for job, _index in list(task.subscribers):
                    self._fail_job_locked(job, error)
                return
            # Reschedule at the front of the client's queue: the task
            # already waited its turn once.
            task.signal(State.PENDING)
            self._emit_task_locked(task)
            task.worker_id = None
            client = task.job.client
            self._ready[client].appendleft(task)
            self.metrics.queue_depth(client).set(len(self._ready[client]))

    def _sync_pool_metrics(self) -> None:
        respawns = getattr(self._pool, "respawns", 0)
        if respawns > self._pool_respawns_seen:
            self.metrics.worker_respawns.inc(
                respawns - self._pool_respawns_seen
            )
            self._pool_respawns_seen = respawns

    def _crash(self, exc: Exception) -> None:
        """Dispatcher hit an internal error: fail every live job and
        refuse new submissions (nothing would dispatch them)."""
        with self._lock:
            self._closed = f"scheduler crashed: {exc!r}"
            for handle in list(self._live.values()):
                self._fail_job_locked(handle.job, ServiceError(self._closed))
