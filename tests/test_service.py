"""Tests for the experiment service tier (repro.service).

Covers the job/task lifecycle model, the worker pools, the
scheduler's streaming / dedupe / cancellation / retry behavior, the
SweepRunner-on-scheduler equivalence guarantees, and the TCP front end.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import threading
import time
import weakref

import pytest

from repro.bench.engine import ExecutionConfig, ExperimentSpec, SweepRunner
from repro.bench.store import ResultStore
from repro.core.pipeline import NodeAssignment
from repro.errors import (
    ConfigurationError,
    JobCancelledError,
    ServiceError,
)
from repro.obs.service import ServiceMetrics
from repro.service import (
    ExperimentScheduler,
    State,
    TaskSpec,
)
from repro.service.model import Job, Lifecycle, Task
from repro.service.pool import InlinePool, ProcessPool, resolve_runner
from repro.service import server as server_module
from repro.service.server import ExperimentServer, request, submit_batch
from repro.service.testing import (
    FAILING_RUNNER,
    SLEEP_RUNNER,
    SLOW_FIRST_RUNNER,
)

FAST = ExecutionConfig(n_cpis=2, warmup=0)

#: Generous deadline for anything that involves process spawn.
DEADLINE = 60


def small_spec(small_params, **kw):
    kw.setdefault("assignment", NodeAssignment.balanced(small_params, 14))
    kw.setdefault("params", small_params)
    kw.setdefault("cfg", FAST)
    return ExperimentSpec(**kw)


def sleep_cell(key, tmp_path, duration=0.0, value=None):
    """A TaskSpec running the synthetic sleep runner."""
    return TaskSpec(
        key=key,
        payload={"id": key, "value": value if value is not None else key,
                 "duration": duration, "dir": str(tmp_path)},
        runner=SLEEP_RUNNER,
    )


def wait_until(predicate, timeout=DEADLINE, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# lifecycle model
# ---------------------------------------------------------------------------
class TestLifecycle:
    def test_legal_path_and_listeners(self):
        lc = Lifecycle()
        assert lc.signal(State.RUNNING)
        assert lc.signal(State.DONE)
        assert lc.state is State.DONE

    def test_terminal_states_sticky(self):
        lc = Lifecycle()
        lc.signal(State.CANCELLED)
        assert not lc.signal(State.RUNNING)
        assert lc.state is State.CANCELLED

    def test_same_state_signal_is_noop(self):
        lc = Lifecycle()
        assert not lc.signal(State.PENDING)
        assert lc.state is State.PENDING

    def test_reschedule_path_running_to_pending(self):
        lc = Lifecycle()
        lc.signal(State.RUNNING)
        assert lc.signal(State.PENDING)

    def test_job_settled_tracks_tasks_and_subscriptions(self):
        job = Job("c", 2)
        task = Task(TaskSpec(key="k", payload={}, runner="x:y"), job)
        job.tasks.append(task)
        assert not job.settled
        task.signal(State.RUNNING)
        task.signal(State.DONE)
        assert job.settled
        job.pending_keys["other"] = 1
        assert not job.settled

    def test_job_describe_shape(self):
        job = Job("cli", 3, label="sweep")
        assert job.describe()["client"] == "cli"
        assert job.describe()["counters"]["executed"] == 0


# ---------------------------------------------------------------------------
# pools
# ---------------------------------------------------------------------------
class TestResolveRunner:
    def test_resolves_import_string(self):
        fn = resolve_runner("repro.service.testing:failing_payload")
        with pytest.raises(ValueError):
            fn({})

    @pytest.mark.parametrize("bad", ["nocolon", ":fn", "mod:", "repro:nope"])
    def test_rejects_bad_names(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_runner(bad)


class TestInlinePool:
    def test_done_and_error_events(self, tmp_path):
        pool = InlinePool()
        pool.submit("t1", SLEEP_RUNNER, {"id": "a", "value": 1,
                                         "dir": str(tmp_path)})
        (ev,) = pool.poll()
        assert ev.kind == "done" and ev.result.data["value"] == 1
        pool.submit("t2", FAILING_RUNNER, {"message": "boom"})
        (ev,) = pool.poll()
        assert ev.kind == "error" and "boom" in str(ev.error)


class TestProcessPool:
    def test_runs_in_other_process_and_reuses_workers(self, tmp_path):
        pool = ProcessPool(1)
        try:
            pids = set()
            for i in range(3):
                pool.submit(f"t{i}", SLEEP_RUNNER,
                            {"id": str(i), "value": i, "dir": str(tmp_path)})
                events = []
                assert wait_until(
                    lambda: events.extend(pool.poll(timeout=0.2)) or events
                )
                assert events[0].kind == "done"
                pids.add(events[0].result.data["pid"])
            assert len(pids) == 1           # persistent, not respawned
            assert pids != {os.getpid()}    # and genuinely out-of-process
        finally:
            pool.shutdown()

    def test_death_reports_orphan_and_respawns(self, tmp_path):
        pool = ProcessPool(1)
        try:
            pool.submit("t1", SLEEP_RUNNER,
                        {"id": "a", "duration": 30, "dir": str(tmp_path)})
            assert wait_until(lambda: (tmp_path / "started-a").exists())
            os.kill(pool.worker_pids()[0], signal.SIGKILL)
            events = []
            assert wait_until(
                lambda: events.extend(pool.poll(timeout=0.2)) or events
            )
            assert events[0].kind == "died" and events[0].task_id == "t1"
            assert pool.respawns == 1
            assert len(pool.worker_pids()) == 1  # replacement is up
        finally:
            pool.shutdown()

    def test_shutdown_stops_workers(self):
        pool = ProcessPool(2)
        pids = pool.worker_pids()
        pool.shutdown()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_size_validated(self):
        with pytest.raises(ConfigurationError):
            ProcessPool(0)


# ---------------------------------------------------------------------------
# scheduler core
# ---------------------------------------------------------------------------
class TestSchedulerBasics:
    def test_inline_job_completes_in_order_index(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            cells = [sleep_cell(f"k{i}", tmp_path, value=i) for i in range(4)]
            h = s.submit_tasks(cells, client="a")
            out = h.wait(timeout=DEADLINE)
            assert [r["value"] for r in out] == [0, 1, 2, 3]
            assert h.state is State.DONE
            assert h.counters["executed"] == 4

    def test_streaming_iterator_sources_and_indices(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            cells = [sleep_cell(f"k{i}", tmp_path) for i in range(3)]
            h = s.submit_tasks(cells, client="a")
            got = list(h.results(timeout=DEADLINE))
            assert {c.index for c in got} == {0, 1, 2}
            assert all(c.source == "executed" for c in got)

    def test_intra_job_duplicates_alias_single_execution(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            cell = sleep_cell("dup", tmp_path, value=7)
            h = s.submit_tasks([cell, cell, cell], client="a")
            out = h.wait(timeout=DEADLINE)
            assert len(out) == 3
            assert out[0] is out[1] is out[2]
            assert h.counters["executed"] == 1
            assert h.counters["cache_misses"] == 1

    def test_task_failure_fails_job_with_original_error(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            bad = TaskSpec(key="bad", payload={"message": "synthetic"},
                           runner=FAILING_RUNNER)
            h = s.submit_tasks([bad], client="a")
            with pytest.raises(ValueError, match="synthetic"):
                h.wait(timeout=DEADLINE)
            assert h.state is State.FAILED

    def test_empty_job_rejected(self):
        with ExperimentScheduler(workers=0) as s:
            with pytest.raises(ConfigurationError):
                s.submit_tasks([], client="a")

    def test_submit_after_shutdown_rejected(self):
        s = ExperimentScheduler(workers=0)
        s.shutdown()
        with pytest.raises(ServiceError):
            s.submit_tasks([TaskSpec("k", {}, "m:f")])

    def test_jobs_listing(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path)], client="me",
                label="demo",
            )
            h.wait(timeout=DEADLINE)
            jobs = s.jobs()
            mine = [j for j in jobs if j["id"] == h.id]
            assert mine and mine[0]["label"] == "demo"
            assert s.job(h.id)["state"] == "done"
            assert s.job("j999999") is None

    def test_results_replay_after_stream_drained(self, tmp_path):
        # A second results()/wait() call after the terminal event was
        # consumed must return immediately, not block on the empty queue.
        with ExperimentScheduler(workers=0) as s:
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path, value=3)], client="a"
            )
            first = h.wait(timeout=DEADLINE)
            again = h.wait(timeout=1)
            assert again == first
            assert list(h.results(timeout=1)) == []

    def test_terminal_error_replays_after_drained(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            bad = TaskSpec(key="bad", payload={"message": "synthetic"},
                           runner=FAILING_RUNNER)
            h = s.submit_tasks([bad], client="a")
            with pytest.raises(ValueError, match="synthetic"):
                h.wait(timeout=DEADLINE)
            with pytest.raises(ValueError, match="synthetic"):
                h.wait(timeout=1)


class Token:
    """A weak-referenceable stand-in for a result payload's contents."""


def token_cell(key, token):
    """A sleep cell whose result payload carries ``token``."""
    return TaskSpec(key=key, payload={"id": key, "value": token},
                    runner=SLEEP_RUNNER)


class TestJobRetention:
    """A job that ends drops to its describe() snapshot at once."""

    def test_terminal_jobs_evicted_to_snapshots(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            handles = []
            for i in range(3):
                h = s.submit_tasks(
                    [sleep_cell(f"r{i}", tmp_path, value=i)],
                    client="a",
                )
                h.wait(timeout=DEADLINE)
                handles.append(h)
            # The scheduler dropped its own references at once...
            assert all(s.handle(h.id) is None for h in handles)
            # ...but `repro jobs list|show` still see the snapshots...
            assert s.job(handles[0].id)["state"] == "done"
            assert [j["id"] for j in s.jobs()] == [h.id for h in handles]
            # ...and a client still holding a handle keeps it usable.
            assert handles[0].wait(timeout=1)[0]["value"] == 0

    def test_listing_keeps_submission_order(self, tmp_path):
        # A job that ends after a later one must not move in the listing.
        # backpressure=1 holds the first job's second cell until its
        # client consumes the first, so the second job ends first.
        with ExperimentScheduler(workers=0, backpressure=1) as s:
            slow = s.submit_tasks(
                [sleep_cell(f"s{i}", tmp_path) for i in range(2)],
                client="a",
            )
            fast = s.submit_tasks(
                [sleep_cell("fast", tmp_path)], client="b",
            )
            fast.wait(timeout=DEADLINE)
            listing = s.jobs()
            assert [j["id"] for j in listing] == [slow.id, fast.id]
            assert [j["state"] for j in listing] == ["running", "done"]
            slow.wait(timeout=DEADLINE)
            listing = s.jobs()
            assert [j["id"] for j in listing] == [slow.id, fast.id]
            assert [j["state"] for j in listing] == ["done", "done"]

    def test_finished_jobs_release_payloads(self):
        # More jobs than the old 256-job retention: once each client
        # drops its handle, no finished job's payload stays alive.
        n_jobs = 300
        refs = []

        def run_one(i):
            token = Token()
            refs.append(weakref.ref(token))
            h = s.submit_tasks([token_cell(f"m{i}", token)],
                                client="a")
            assert h.wait(timeout=DEADLINE)[0]["value"] is token

        with ExperimentScheduler(workers=0) as s:
            for i in range(n_jobs):
                run_one(i)
            kept_token = Token()
            kept = s.submit_tasks([token_cell("kept", kept_token)],
                                   client="a")
            first = kept.wait(timeout=DEADLINE)
            gc.collect()
            alive = [r for r in refs if r() is not None]
            assert not alive, f"{len(alive)} finished payloads still alive"
            # A client holding its handle gets the same payloads again.
            again = kept.wait(timeout=1)
            assert again == first and again[0]["value"] is kept_token
            assert len(s.jobs()) == n_jobs + 1

    def test_cancel_evicted_job_is_false(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path)], client="a"
            )
            h.wait(timeout=DEADLINE)
            assert not s.cancel(h.id)


class TestDispatcherCrash:
    def test_crash_fails_live_jobs_and_refuses_submits(self, tmp_path):
        s = ExperimentScheduler(workers=0)
        submitted = threading.Event()
        crashes = []
        crash = s._crash

        def faulty_dispatch():
            submitted.wait(DEADLINE)
            raise RuntimeError("injected dispatch fault")

        def spy_crash(exc):
            crashes.append(exc)
            crash(exc)

        s._crash = spy_crash
        s._dispatch_once = faulty_dispatch
        try:
            h = s.submit_tasks([sleep_cell("k", tmp_path)],
                                client="a")
            submitted.set()
            with pytest.raises(ServiceError, match="scheduler crashed"):
                h.wait(timeout=DEADLINE)
            assert h.state is State.FAILED
            assert len(crashes) == 1
            assert "injected dispatch fault" in str(crashes[0])
            # Nothing would dispatch a new job: refuse it at once.
            with pytest.raises(ServiceError, match="scheduler crashed"):
                s.submit_tasks([sleep_cell("k2", tmp_path)],
                                client="a")
        finally:
            s.shutdown()


class TestSchedulerWithStore:
    def test_cache_hit_streams_instantly(self, small_params, tmp_path):
        store = ResultStore(tmp_path / "cache")
        spec = small_spec(small_params)
        with ExperimentScheduler(workers=0, store=store) as s:
            first = s.submit([spec], client="a").wait(timeout=DEADLINE)
            h = s.submit([spec], client="a")
            cells = list(h.results(timeout=DEADLINE))
            assert cells[0].source == "cache"
            assert cells[0].payload == first[0]
            assert h.counters == {"cache_hits": 1, "cache_misses": 0,
                                  "executed": 0, "deduped": 0, "retries": 0,
                                  "predicted": 0}

    def test_duplicate_cells_probe_the_store_once(self, small_params,
                                                  tmp_path):
        class CountingStore(ResultStore):
            calls = 0

            def get_dict(self, spec):
                self.calls += 1
                return super().get_dict(spec)

        store = CountingStore(tmp_path / "cache")
        spec = small_spec(small_params)
        with ExperimentScheduler(workers=0, store=store) as s:
            s.submit([spec], client="a").wait(timeout=DEADLINE)
            store.calls = 0
            h = s.submit([spec] * 8, client="a")
            out = h.wait(timeout=DEADLINE)
            assert store.calls == 1
            assert h.counters["cache_hits"] == 1
            assert len(out) == 8 and all(r is out[0] for r in out)

    def test_inflight_dedupe_across_clients(self, tmp_path):
        # One busy worker: client A's cell is still executing when
        # client B submits the same key — B must subscribe, not re-run.
        with ExperimentScheduler(workers=1) as s:
            cell = sleep_cell("shared", tmp_path, duration=1.0, value=42)
            ha = s.submit_tasks([cell], client="a")
            assert wait_until(lambda: (tmp_path / "started-shared").exists())
            hb = s.submit_tasks([cell], client="b")
            ra = ha.wait(timeout=DEADLINE)
            rb = hb.wait(timeout=DEADLINE)
            assert ra[0]["value"] == rb[0]["value"] == 42
            assert ha.counters["executed"] == 1
            assert hb.counters["executed"] == 0
            assert hb.counters["deduped"] == 1
            assert list(tmp_path.glob("finished-shared")) != []
            # the cell ran exactly once: one started marker
            assert len(list(tmp_path.glob("started-*"))) == 1
            assert s.metrics.dedupe_hits.value == 1


class TestStreamingOrder:
    def test_first_cell_delivered_before_last_cell_starts(self, tmp_path):
        """The acceptance pin: streaming demonstrably streams.

        One worker, staggered costs: the first cell is fast, the last is
        slow.  The first result must reach the client before the last
        cell has even *started* executing.
        """
        with ExperimentScheduler(workers=1) as s:
            cells = [
                sleep_cell("c0", tmp_path, duration=0.0),
                sleep_cell("c1", tmp_path, duration=0.4),
                sleep_cell("c2", tmp_path, duration=0.4),
            ]
            h = s.submit_tasks(cells, client="a")
            stream = h.results(timeout=DEADLINE)
            first = next(stream)
            assert first.key == "c0"
            last_started = (tmp_path / "started-c2").exists()
            rest = list(stream)
            assert not last_started, (
                "first result was not delivered until after the last cell "
                "began executing — results are not streaming"
            )
            assert len(rest) == 2


class TestCancellation:
    def test_cancel_stops_dispatch_and_interrupts_inflight(self, tmp_path):
        with ExperimentScheduler(workers=1) as s:
            cells = [sleep_cell(f"c{i}", tmp_path, duration=30)
                     for i in range(3)]
            h = s.submit_tasks(cells, client="a")
            assert wait_until(lambda: (tmp_path / "started-c0").exists())
            assert h.cancel()
            with pytest.raises(JobCancelledError):
                list(h.results(timeout=DEADLINE))
            assert h.state is State.CANCELLED
            # no new dispatch: cells 1 and 2 never started
            assert not (tmp_path / "started-c1").exists()
            assert not (tmp_path / "started-c2").exists()
            # in-flight work was interrupted, not awaited: c0 never finished
            assert not (tmp_path / "finished-c0").exists()
            # and the scheduler is still usable afterwards
            h2 = s.submit_tasks(
                [sleep_cell("after", tmp_path, value=1)],
                client="a",
            )
            assert h2.wait(timeout=DEADLINE)[0]["value"] == 1

    def test_cancel_is_idempotent_and_false_when_done(self, tmp_path):
        with ExperimentScheduler(workers=0) as s:
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path)], client="a"
            )
            h.wait(timeout=DEADLINE)
            assert not h.cancel()
            assert not s.cancel("j999999")

    def test_cancelled_task_survives_for_dedupe_subscriber(self, tmp_path):
        # A cancels while B is subscribed to A's in-flight task: the
        # task keeps running (ownership transfer) and B still completes.
        with ExperimentScheduler(workers=1) as s:
            cell = sleep_cell("xfer", tmp_path, duration=1.0, value=9)
            ha = s.submit_tasks([cell], client="a")
            assert wait_until(lambda: (tmp_path / "started-xfer").exists())
            hb = s.submit_tasks([cell], client="b")
            assert ha.cancel()
            rb = hb.wait(timeout=DEADLINE)
            assert rb[0]["value"] == 9
            # the surviving execution is credited to nobody's "executed"
            assert hb.counters["deduped"] == 1
            assert hb.counters["executed"] == 0


class TestWorkerDeathRetry:
    def test_sigkill_mid_task_reschedules_once_and_completes(self, tmp_path):
        """The acceptance pin: kill -9 one worker mid-sweep; the task is
        rescheduled exactly once and the job completes."""
        metrics = ServiceMetrics()
        with ExperimentScheduler(workers=1, metrics=metrics) as s:
            cell = TaskSpec(
                key="victim",
                payload={"id": "v", "value": 5, "dir": str(tmp_path)},
                runner=SLOW_FIRST_RUNNER,
            )
            h = s.submit_tasks([cell], client="a")
            assert wait_until(lambda: (tmp_path / "attempted-v").exists())
            os.kill(s.worker_pids()[0], signal.SIGKILL)
            out = h.wait(timeout=DEADLINE)
            assert out[0]["value"] == 5
            assert out[0]["attempt"] == "retry"
            assert h.state is State.DONE
            assert h.counters["retries"] == 1
            assert metrics.task_retries.value == 1
            assert metrics.worker_respawns.value == 1

    def test_repeated_deaths_fail_the_job(self, tmp_path):
        with ExperimentScheduler(workers=1, max_task_retries=0) as s:
            cell = sleep_cell("k", tmp_path, duration=30)
            h = s.submit_tasks([cell], client="a")
            assert wait_until(lambda: (tmp_path / "started-k").exists())
            os.kill(s.worker_pids()[0], signal.SIGKILL)
            with pytest.raises(ServiceError, match="lost"):
                h.wait(timeout=DEADLINE)
            assert h.state is State.FAILED


class TestFairQueueing:
    def test_round_robin_interleaves_clients(self, tmp_path):
        # Client A floods the queue first; client B's single cell must
        # not wait for all of A's backlog on the single worker.
        with ExperimentScheduler(workers=1) as s:
            a_cells = [sleep_cell(f"a{i}", tmp_path, duration=0.1)
                       for i in range(6)]
            ha = s.submit_tasks(a_cells, client="a")
            hb = s.submit_tasks(
                [sleep_cell("b0", tmp_path, duration=0.1)],
                client="b",
            )
            done_b = []
            t_b = threading.Thread(
                target=lambda: (hb.wait(timeout=DEADLINE),
                                done_b.append(time.monotonic())))
            t_b.start()
            ha.wait(timeout=DEADLINE)
            t_a_done = time.monotonic()
            t_b.join(timeout=DEADLINE)
            assert done_b and done_b[0] < t_a_done, (
                "client b's 1-cell job finished after client a's 6-cell "
                "backlog — queueing is not fair"
            )


class TestBackpressure:
    def test_slow_consumer_pauses_own_dispatch(self, tmp_path):
        with ExperimentScheduler(workers=1, backpressure=2) as s:
            cells = [sleep_cell(f"c{i}", tmp_path) for i in range(6)]
            h = s.submit_tasks(cells, client="a")
            # Don't consume: completed-but-undelivered grows to the
            # limit and dispatch stops there.
            assert wait_until(lambda: h.undelivered >= 2)
            time.sleep(0.3)
            started = len(list(tmp_path.glob("started-*")))
            assert started <= 3, (
                f"{started} cells started despite backpressure=2"
            )
            # Draining the stream releases the rest.
            assert len(h.wait(timeout=DEADLINE)) == 6

    def test_detached_job_ignores_backpressure(self, tmp_path):
        # A fire-and-forget submission (nobody drains the stream) must
        # run to completion instead of stalling at the undelivered cap —
        # and must not block later jobs from the same client.
        with ExperimentScheduler(workers=1, backpressure=2) as s:
            cells = [sleep_cell(f"d{i}", tmp_path) for i in range(6)]
            h = s.submit_tasks(cells, client="a")
            h.detach()
            assert wait_until(lambda: h.state is State.DONE)
            assert len(list(tmp_path.glob("finished-d*"))) == 6
            assert h.undelivered == 0
            # the queue head is clear: a follow-up job runs normally
            h2 = s.submit_tasks(
                [sleep_cell("after", tmp_path, value=1)], client="a"
            )
            assert h2.wait(timeout=DEADLINE)[0]["value"] == 1

    def test_detached_handle_wait_still_returns(self, tmp_path):
        # detach() drops buffered results but keeps the terminal event;
        # results stay reachable through the job's index map.
        with ExperimentScheduler(workers=0, backpressure=1) as s:
            cells = [sleep_cell(f"w{i}", tmp_path, value=i) for i in range(3)]
            h = s.submit_tasks(cells, client="a")
            h.detach()
            out = h.wait(timeout=DEADLINE)
            assert [r["value"] for r in out] == [0, 1, 2]


# ---------------------------------------------------------------------------
# SweepRunner on the scheduler: equivalence acceptance
# ---------------------------------------------------------------------------
def _result_hashes(results):
    import hashlib
    import json

    return [
        hashlib.sha256(
            json.dumps(r.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        for r in results
    ]


@pytest.fixture
def eight_cell_sweep(small_params):
    """The pinned 8-cell sweep: 2 pipelines x 2 stripe factors x 2 seeds."""
    from repro.core.executor import FSConfig

    return [
        small_spec(
            small_params,
            pipeline=pipeline,
            fs=FSConfig(kind="pfs", stripe_factor=sf),
            seed=seed,
        )
        for pipeline in ("embedded", "separate")
        for sf in (8, 16)
        for seed in (0, 1)
    ]


class TestSweepRunnerEquivalence:
    def test_serial_and_parallel_runs_bit_identical(self, eight_cell_sweep,
                                                    tmp_path):
        """Acceptance pin: jobs=1 and process-parallel runs of the same
        sweep produce bit-identical result hashes and identical
        hit/miss/executed counters."""
        with SweepRunner(jobs=1, store=ResultStore(tmp_path / "s1")) as serial:
            r_serial = serial.run(eight_cell_sweep)
            serial_counts = (serial.cache_hits, serial.cache_misses,
                            serial.executed)
        with SweepRunner(jobs=4, store=ResultStore(tmp_path / "s4")) as par:
            r_par = par.run(eight_cell_sweep)
            par_counts = (par.cache_hits, par.cache_misses, par.executed)
        assert _result_hashes(r_serial) == _result_hashes(r_par)
        assert serial_counts == par_counts == (0, 8, 8)

    def test_counter_compat_hits_aliases_and_store(self, small_params,
                                                   tmp_path):
        """Counter semantics match the pre-service SweepRunner exactly:
        duplicates alias without counter traffic, second runs hit."""
        store = ResultStore(tmp_path / "cache")
        a = small_spec(small_params, seed=0)
        b = small_spec(small_params, seed=1)
        with SweepRunner(jobs=1, store=store) as runner:
            results = runner.run([a, b, a])          # a duplicated
            assert (runner.cache_hits, runner.cache_misses,
                    runner.executed) == (0, 2, 2)
            assert results[0] is results[2]
        with SweepRunner(jobs=1, store=store) as runner:
            runner.run([a, b])
            assert (runner.cache_hits, runner.cache_misses,
                    runner.executed) == (2, 0, 0)

    def test_no_store_still_counts_misses(self, small_params):
        with SweepRunner(jobs=1) as runner:
            runner.run([small_spec(small_params)])
            assert runner.cache_misses == 1 and runner.executed == 1

    def test_run_empty_grid_returns_empty_list(self):
        # Pre-service behavior: an empty grid is a no-op, not an error.
        with SweepRunner(jobs=1) as runner:
            assert runner.run([]) == []
            assert (runner.cache_hits, runner.cache_misses,
                    runner.executed) == (0, 0, 0)

    def test_jobs_validated(self):
        with pytest.raises(ConfigurationError):
            SweepRunner(jobs=0)

    def test_run_one_roundtrip(self, small_params):
        with SweepRunner(jobs=1) as runner:
            result = runner.run_one(small_spec(small_params))
            assert result.throughput > 0

    def test_persistent_pool_reused_across_runs(self, small_params, tmp_path):
        a = small_spec(small_params, seed=0)
        b = small_spec(small_params, seed=1)
        with SweepRunner(jobs=2, store=ResultStore(tmp_path)) as runner:
            runner.run([a])
            scheduler = runner._scheduler
            pids_first = set(scheduler.worker_pids())
            runner.run([b])
            assert runner._scheduler is scheduler
            assert set(scheduler.worker_pids()) == pids_first

    def test_close_shuts_workers_down(self, small_params):
        runner = SweepRunner(jobs=2)
        runner.run([small_spec(small_params)])
        pids = runner._scheduler.worker_pids()
        runner.close()
        assert runner._scheduler is None
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_failing_cell_keeps_pool_warm(self, small_params):
        good = small_spec(small_params)
        with SweepRunner(jobs=1) as runner:
            with pytest.raises(ConfigurationError):
                runner.run([small_spec(small_params, pipeline="bogus")])
            # unreachable: spec validation raises at construction.
        with SweepRunner(jobs=2) as runner:
            runner.run([good])
            scheduler = runner._scheduler
            bad = TaskSpec(key="bad", payload={"message": "x"},
                           runner=FAILING_RUNNER)
            h = scheduler.submit_tasks([bad], client="sweep")
            with pytest.raises(ValueError):
                h.wait(timeout=DEADLINE)
            # pool survived the failed job
            assert runner.run([small_spec(small_params, seed=3)])


class TestSweepRunnerInterrupt:
    def test_ctrl_c_cancels_cleanly_and_keeps_partial_cache(
        self, small_params, tmp_path
    ):
        """Satellite pin: Ctrl-C mid-sweep shuts the workers down and
        leaves already-finished cells in the cache."""
        import _thread

        store_dir = tmp_path / "cache"
        store = ResultStore(store_dir)
        fast = [small_spec(small_params, seed=s) for s in range(2)]
        slow = small_spec(small_params, seed=99,
                          cfg=ExecutionConfig(n_cpis=400, warmup=0))
        runner = SweepRunner(jobs=2, store=store)

        def interrupt_when_first_lands():
            # Wait until at least one fast cell has been cached, then
            # interrupt the main thread (as Ctrl-C would).
            assert wait_until(lambda: len(store.hashes()) >= 1)
            _thread.interrupt_main()

        threading.Thread(target=interrupt_when_first_lands,
                         daemon=True).start()
        with pytest.raises(KeyboardInterrupt):
            runner.run(fast + [slow])
        # workers shut down...
        assert runner._scheduler is None
        # ...and partial results survived in the store
        assert len(store.hashes()) >= 1
        # a fresh runner resumes from the partial cache
        with SweepRunner(jobs=1, store=ResultStore(store_dir)) as fresh:
            fresh.run(fast)
            assert fresh.cache_hits >= 1


# ---------------------------------------------------------------------------
# service metrics
# ---------------------------------------------------------------------------
class TestServiceMetrics:
    def test_instruments_and_snapshot(self):
        m = ServiceMetrics()
        m.tasks_completed.inc()
        m.queue_depth("a").set(3)
        snap = m.snapshot()
        assert snap["service_tasks_completed_total"] == 1
        assert any(k.startswith("service_queue_depth") for k in snap)

    def test_queue_depth_get_or_create(self):
        m = ServiceMetrics()
        assert m.queue_depth("x") is m.queue_depth("x")
        assert m.queue_depth("x") is not m.queue_depth("y")

    def test_scheduler_populates_metrics(self, tmp_path):
        m = ServiceMetrics()
        with ExperimentScheduler(workers=0, metrics=m) as s:
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path)], client="a"
            )
            h.wait(timeout=DEADLINE)
        snap = m.snapshot()
        assert snap["service_jobs_submitted_total"] == 1
        assert snap["service_jobs_completed_total"] == 1
        assert snap["service_tasks_completed_total"] == 1


# ---------------------------------------------------------------------------
# TCP front end
# ---------------------------------------------------------------------------
class _FaultyScheduler:
    """A scheduler stand-in whose ``jobs()`` raises and keeps the
    exception alive."""

    def __init__(self):
        self.errors = []

    def jobs(self):
        try:
            raise RuntimeError("listing broke")
        except RuntimeError as exc:
            self.errors.append(exc)
            raise


@pytest.fixture
def served_scheduler(tmp_path):
    store = ResultStore(tmp_path / "cache")
    with ExperimentScheduler(workers=0, store=store) as scheduler:
        with ExperimentServer(scheduler, port=0) as server:
            yield scheduler, server


class TestServer:
    def test_ping(self, served_scheduler):
        _, server = served_scheduler
        assert request(server.host, server.port,
                       {"op": "ping"})["event"] == "pong"

    def test_submit_follow_streams_and_jobs_listing(self, served_scheduler,
                                                    small_params):
        scheduler, server = served_scheduler
        specs = [small_spec(small_params, seed=s).to_dict() for s in (0, 1)]
        events = list(submit_batch(server.host, server.port, specs,
                                   client="t", follow=True))
        assert events[0]["event"] == "accepted"
        results = [e for e in events if e["event"] == "result"]
        assert len(results) == 2
        assert all("measurement" in e["payload"] for e in results)
        assert events[-1]["event"] == "done"
        assert events[-1]["counters"]["executed"] == 2

        jobs = request(server.host, server.port, {"op": "jobs"})["jobs"]
        assert jobs and jobs[-1]["client"] == "t"
        job_id = events[0]["job"]
        shown = request(server.host, server.port,
                        {"op": "job", "id": job_id})["job"]
        assert shown["state"] == "done"

    def test_submit_no_follow_then_cancel_finished(self, served_scheduler,
                                                   small_params):
        _, server = served_scheduler
        specs = [small_spec(small_params).to_dict()]
        events = list(submit_batch(server.host, server.port, specs,
                                   follow=False))
        assert len(events) == 1 and events[0]["event"] == "accepted"
        job_id = events[0]["job"]
        assert wait_until(
            lambda: request(server.host, server.port,
                            {"op": "job", "id": job_id})["job"]["state"]
            == "done"
        )
        resp = request(server.host, server.port,
                       {"op": "cancel", "id": job_id})
        assert resp["cancelled"] is False

    def test_no_follow_larger_than_backpressure_completes(self, small_params,
                                                          tmp_path):
        # Regression: a fire-and-forget submission with more uncached
        # cells than the backpressure limit used to stall RUNNING
        # forever (nothing drained the stream), wedging the client's
        # whole queue.  The server now detaches the handle.
        store = ResultStore(tmp_path / "cache")
        with ExperimentScheduler(workers=0, store=store,
                                 backpressure=1) as scheduler:
            with ExperimentServer(scheduler, port=0) as server:
                specs = [small_spec(small_params, seed=s).to_dict()
                         for s in range(3)]
                events = list(submit_batch(server.host, server.port, specs,
                                           client="ff", follow=False))
                job_id = events[0]["job"]
                assert wait_until(
                    lambda: scheduler.job(job_id)["state"] == "done"
                )
                # and a later job from the same client is not blocked
                later = list(submit_batch(
                    server.host, server.port,
                    [small_spec(small_params, seed=9).to_dict()],
                    client="ff", follow=True,
                ))
                assert later[-1]["event"] == "done"

    def test_dropped_follower_cancels_job_not_client(self, small_params,
                                                      tmp_path):
        # A --follow client that disconnects mid-stream must not leave
        # its job running at the backpressure limit: that wedged every
        # later job of the same client behind it.
        store = ResultStore(tmp_path / "cache")
        with ExperimentScheduler(workers=0, store=store,
                                 backpressure=4) as scheduler:
            with ExperimentServer(scheduler, port=0) as server:
                specs = [small_spec(small_params, seed=s).to_dict()
                         for s in range(10)]
                stream = submit_batch(server.host, server.port, specs,
                                      client="drop", follow=True)
                job_id = next(stream)["job"]
                assert next(stream)["event"] == "result"
                stream.close()
                assert wait_until(
                    lambda: scheduler.job(job_id)["state"] == "cancelled",
                    timeout=20,
                )
                start = time.monotonic()
                later = list(submit_batch(
                    server.host, server.port,
                    [small_spec(small_params, seed=99).to_dict()],
                    client="drop", follow=True, timeout=20,
                ))
                assert later[-1]["event"] == "done"
                assert time.monotonic() - start < 10

    def test_overlapping_submissions_dedupe_via_shared_cache(
        self, served_scheduler, small_params
    ):
        _, server = served_scheduler
        specs = [small_spec(small_params, seed=s).to_dict() for s in (0, 1)]
        first = list(submit_batch(server.host, server.port, specs,
                                  client="one", follow=True))
        second = list(submit_batch(server.host, server.port, specs,
                                   client="two", follow=True))
        assert first[-1]["counters"]["executed"] == 2
        assert second[-1]["counters"]["cache_hits"] == 2
        assert second[-1]["counters"]["executed"] == 0
        # identical payloads from both paths
        a = {e["index"]: e["payload"] for e in first
             if e["event"] == "result"}
        b = {e["index"]: e["payload"] for e in second
             if e["event"] == "result"}
        assert a == b

    def test_misspelled_spec_key_rejected(self, served_scheduler,
                                          small_params):
        # A typo must not run (and cache) a different cell than the
        # client sent.
        _, server = served_scheduler
        d = small_spec(small_params).to_dict()
        d["flaky_dsk"] = {"server": 1, "error_rate": 0.1, "seed": 0}
        with pytest.raises(ServiceError, match="bad specs.*'flaky_dsk'"):
            request(server.host, server.port, {"op": "submit", "specs": [d]})

    def test_refused_submit_answered_not_fatal(self, small_params):
        # A submit the scheduler refuses gets an error response, not a
        # dropped connection.
        scheduler = ExperimentScheduler(workers=0)
        scheduler.shutdown()
        with ExperimentServer(scheduler, port=0) as server:
            specs = [small_spec(small_params).to_dict()]
            with pytest.raises(ServiceError, match="scheduler is shut down"):
                list(submit_batch(server.host, server.port, specs,
                                  timeout=10))
            assert request(server.host, server.port,
                           {"op": "ping"})["event"] == "pong"

    def test_handler_fault_answered_not_wedged(self):
        # An unexpected handler exception is answered, and the
        # connection closes even though the exception stays referenced
        # (the scheduler keeps job and task errors).
        stub = _FaultyScheduler()
        with ExperimentServer(stub, port=0) as server:
            start = time.monotonic()
            with pytest.raises(ServiceError, match="listing broke"):
                request(server.host, server.port, {"op": "jobs"}, timeout=3)
            assert time.monotonic() - start < 2
            assert request(server.host, server.port,
                           {"op": "ping"})["event"] == "pong"
        assert len(stub.errors) == 1

    def test_bad_requests_rejected_not_fatal(self, served_scheduler):
        _, server = served_scheduler
        with pytest.raises(ServiceError, match="unknown op"):
            request(server.host, server.port, {"op": "frobnicate"})
        with pytest.raises(ServiceError, match="bad specs"):
            request(server.host, server.port,
                    {"op": "submit", "specs": [{"not": "a spec"}]})
        with pytest.raises(ServiceError, match="no such job"):
            request(server.host, server.port, {"op": "job", "id": "j0"})
        # the server is still alive
        assert request(server.host, server.port,
                       {"op": "ping"})["event"] == "pong"

    @staticmethod
    def _raw(server, data: bytes, close_write: bool = False) -> dict:
        """Send ``data`` as-is and read the one-line answer."""
        with socket.create_connection((server.host, server.port),
                                      timeout=10) as conn:
            conn.sendall(data)
            if close_write:
                conn.shutdown(socket.SHUT_WR)
            return json.loads(conn.makefile("rb").readline())

    def test_oversized_request_line_refused(self, served_scheduler,
                                            monkeypatch):
        _, server = served_scheduler
        monkeypatch.setattr(server_module, "MAX_REQUEST_BYTES", 1024)
        # No newline and the connection left open: the answer must not
        # wait for the rest of the line.
        resp = self._raw(server, b'{"op": "ping", "pad": "' + b"x" * 2000)
        assert resp["ok"] is False
        assert resp["error"].startswith("request too large")
        # a line of exactly the cap, newline included, is read whole
        head = b'{"op": "ping", "pad": "'
        fill = b"x" * (1024 - len(head) - len(b'"}\n'))
        assert self._raw(server, head + fill + b'"}\n')["event"] == "pong"
        assert request(server.host, server.port,
                       {"op": "ping"})["event"] == "pong"

    def test_truncated_request_line_answered(self, served_scheduler):
        _, server = served_scheduler
        resp = self._raw(server, b'{"op": "pi', close_write=True)
        assert resp["ok"] is False
        assert resp["error"].startswith("bad request")
        assert request(server.host, server.port,
                       {"op": "ping"})["event"] == "pong"
