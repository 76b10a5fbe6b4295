"""Tests for the live-observability stack: scheduler event listeners,
the EventFeed ring buffer, the TCP ``events``/``stats`` ops, and the
stdlib-only DashboardServer (JSON API, SSE, /report)."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.analysis.dash import DashboardServer, LocalBackend, RemoteBackend
from repro.bench.engine import ExperimentSpec, run_spec
from repro.bench.store import ResultStore
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig
from repro.core.pipeline import NodeAssignment
from repro.errors import ServiceError
from repro.service import ExperimentScheduler, EventFeed, TaskSpec
from repro.service.server import ExperimentServer, request, submit_batch
from repro.service.testing import SLEEP_RUNNER
from repro.stap.params import STAPParams

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

DEADLINE = 60


def sleep_cell(key, tmp_path, value=None):
    return TaskSpec(
        key=key,
        payload={"id": key, "value": value if value is not None else key,
                 "duration": 0.0, "dir": str(tmp_path)},
        runner=SLEEP_RUNNER,
    )


def drain(handle):
    return list(handle.results())


# -- EventFeed ---------------------------------------------------------------
class TestEventFeed:
    def test_since_and_cursor(self):
        feed = EventFeed()
        for i in range(3):
            feed.record({"event": "task", "i": i})
        events, cursor = feed.since(0)
        assert [e["i"] for e in events] == [0, 1, 2]
        assert [e["seq"] for e in events] == [1, 2, 3]
        assert cursor == 3
        assert all("time" in e for e in events)
        # nothing new past the cursor
        events, cursor = feed.since(cursor)
        assert events == [] and cursor == 3

    def test_ring_eviction_skips_gap(self):
        feed = EventFeed(maxlen=4)
        for i in range(10):
            feed.record({"i": i})
        events, cursor = feed.since(0)
        # only the newest 4 survive; the cursor converges past the gap
        assert [e["i"] for e in events] == [6, 7, 8, 9]
        assert cursor == 10

    def test_limit(self):
        feed = EventFeed()
        for i in range(5):
            feed.record({"i": i})
        events, cursor = feed.since(0, limit=2)
        assert [e["i"] for e in events] == [0, 1]
        assert cursor == 2  # resume from the truncation point

    def test_wait_times_out_empty(self):
        feed = EventFeed()
        events, cursor = feed.wait(0, timeout=0.05)
        assert events == [] and cursor == 0

    def test_wait_wakes_on_record(self):
        feed = EventFeed()
        got = {}

        def consumer():
            got["events"], got["cursor"] = feed.wait(0, timeout=5.0)

        t = threading.Thread(target=consumer)
        t.start()
        feed.record({"hello": 1})
        t.join(timeout=DEADLINE)
        assert not t.is_alive()
        assert got["events"][0]["hello"] == 1


# -- scheduler listeners -----------------------------------------------------
class TestSchedulerEvents:
    def test_lifecycle_event_stream(self, tmp_path):
        events = []
        with ExperimentScheduler(workers=0, store=None) as s:
            s.add_listener(events.append)
            cells = [sleep_cell(f"c{i}", tmp_path) for i in range(3)]
            h = s.submit_tasks(cells, client="a")
            drain(h)
        kinds = [e["event"] for e in events]
        assert kinds.count("result") == 3
        # job events bracket the run: a RUNNING emission and a DONE one
        job_states = [e["state"] for e in events if e["event"] == "job"]
        assert job_states[0] == "running"
        assert job_states[-1] == "done"
        task_states = {e["state"] for e in events if e["event"] == "task"}
        assert {"running", "done"} <= task_states
        # results count rides on the job event for progress rendering
        final_job = [e for e in events if e["event"] == "job"][-1]
        assert final_job["results"] == 3

    def test_listener_exceptions_are_swallowed(self, tmp_path):
        def bad_listener(event):
            raise RuntimeError("listener bug")

        with ExperimentScheduler(workers=0, store=None) as s:
            s.add_listener(bad_listener)
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path)], client="a"
            )
            out = drain(h)
        assert len(out) == 1  # the job still completes

    def test_synthetic_payload_result_event(self, tmp_path):
        # Sleep-runner payloads have no "measurement"; the result event
        # must still be emitted with null throughput, not crash.
        events = []
        with ExperimentScheduler(workers=0, store=None) as s:
            s.add_listener(events.append)
            h = s.submit_tasks(
                [sleep_cell("k", tmp_path)], client="a"
            )
            drain(h)
        (result_event,) = [e for e in events if e["event"] == "result"]
        assert result_event["throughput"] is None
        assert result_event["result_source"] == "simulated"


# -- TCP ops -----------------------------------------------------------------
def _small_spec(sf=8):
    params = STAPParams(
        n_channels=8, n_pulses=32, n_ranges=256, n_beams=6, n_hard_bins=8,
        n_training=64, pulse_len=16, cfar_window=12, cfar_guard=3, pfa=1e-6,
    )
    return ExperimentSpec(
        assignment=NodeAssignment.balanced(params, 14),
        pipeline="embedded",
        fs=FSConfig("pfs", stripe_factor=sf),
        params=params,
        cfg=ExecutionConfig(n_cpis=2, warmup=1),
    )


@pytest.fixture(scope="module")
def live_service():
    """A scheduler+feed+server that has completed one 2-cell job."""
    scheduler = ExperimentScheduler(workers=0, store=None)
    feed = EventFeed().attach(scheduler)
    specs = [_small_spec(4).to_dict(), _small_spec(8).to_dict()]
    with ExperimentServer(scheduler, port=0, feed=feed) as server:
        events = list(
            submit_batch(server.host, server.port, specs, follow=True)
        )
        assert events[-1]["event"] == "done"
        yield server
    scheduler.shutdown()


class TestServerOps:
    def test_events_op(self, live_service):
        srv = live_service
        resp = request(srv.host, srv.port, {"op": "events", "after": 0})
        kinds = {e["event"] for e in resp["events"]}
        assert {"job", "task", "result"} <= kinds
        assert resp["next"] >= len(resp["events"])
        # cursor resumes cleanly
        again = request(
            srv.host, srv.port, {"op": "events", "after": resp["next"]}
        )
        assert again["events"] == []

    def test_stats_op(self, live_service):
        srv = live_service
        resp = request(srv.host, srv.port, {"op": "stats"})
        assert resp["stats"]["tasks_in_flight"] == 0
        assert resp["stats"]["service_jobs_submitted_total"] >= 1
        assert isinstance(resp["workers"], list)

    def test_events_op_without_feed(self):
        with ExperimentScheduler(workers=0, store=None) as s:
            with ExperimentServer(s, port=0) as srv:
                with pytest.raises(ServiceError, match="no event feed"):
                    request(srv.host, srv.port, {"op": "events"})

    def test_bad_cursor_rejected(self, live_service):
        srv = live_service
        with pytest.raises(ServiceError, match="bad cursor"):
            request(srv.host, srv.port,
                    {"op": "events", "after": "not-a-number"})


# -- dashboard HTTP endpoints ------------------------------------------------
def _get_json(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _get_text(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.read().decode("utf-8")


@pytest.fixture(scope="module")
def dash_stack(tmp_path_factory):
    """Scheduler + completed job + store + DashboardServer (local)."""
    tmp = tmp_path_factory.mktemp("dash")
    store = ResultStore(tmp / "cache")
    spec = _small_spec(4)
    metered_spec = ExperimentSpec(
        assignment=spec.assignment, pipeline="embedded",
        fs=spec.fs, params=spec.params,
        cfg=ExecutionConfig(n_cpis=2, warmup=1, metrics_interval=0.25),
    )
    store.put(metered_spec, run_spec(metered_spec))

    scheduler = ExperimentScheduler(workers=0, store=store)
    feed = EventFeed().attach(scheduler)
    handle = scheduler.submit([_small_spec(8)], client="dash-test")
    drain(handle)
    dash = DashboardServer(
        LocalBackend(scheduler, feed), port=0,
        store=store, results_dir=str(RESULTS_DIR),
    ).start()
    yield dash, metered_spec
    dash.stop()
    scheduler.shutdown()


class TestDashboard:
    def test_index(self, dash_stack):
        dash, _ = dash_stack
        page = _get_text(dash.address + "/")
        assert "repro fleet dashboard" in page
        assert "/report" in page

    def test_jobs_endpoint(self, dash_stack):
        dash, _ = dash_stack
        jobs = _get_json(dash.address + "/api/jobs")["jobs"]
        assert len(jobs) == 1
        assert jobs[0]["state"] == "done"
        assert jobs[0]["client"] == "dash-test"

    def test_events_endpoint(self, dash_stack):
        dash, _ = dash_stack
        payload = _get_json(dash.address + "/api/events?after=0")
        assert payload["events"]
        assert payload["next"] == payload["events"][-1]["seq"]

    def test_stats_endpoint(self, dash_stack):
        dash, _ = dash_stack
        stats = _get_json(dash.address + "/api/stats")["stats"]
        assert stats["tasks_in_flight"] == 0
        assert stats["service_jobs_submitted_total"] >= 1

    def test_runs_and_run_detail(self, dash_stack):
        dash, metered_spec = dash_stack
        runs = _get_json(dash.address + "/api/runs")["runs"]
        hashes = {r["hash"] for r in runs}
        assert metered_spec.spec_hash() in hashes
        detail = _get_json(
            dash.address + "/api/run/" + metered_spec.spec_hash()[:12]
        )
        assert detail["hash"] == metered_spec.spec_hash()
        assert detail["throughput"] > 0
        assert detail["profile"]["bottleneck"] in ("disk", "compute")
        assert detail["series"]  # sparkline-ready gauge series
        some_series = next(iter(detail["series"].values()))
        assert some_series["spark"]

    def test_report_endpoint(self, dash_stack):
        dash, _ = dash_stack
        page = _get_text(dash.address + "/report")
        assert "Strategy win/loss" in page
        assert "server-directed" in page

    def test_sse_stream(self, dash_stack):
        dash, _ = dash_stack
        req = urllib.request.urlopen(dash.address + "/events?after=0",
                                     timeout=10)
        assert req.headers["Content-Type"].startswith("text/event-stream")
        line = req.readline().decode("utf-8")
        assert line.startswith("id: ")
        data = req.readline().decode("utf-8")
        assert data.startswith("data: ")
        event = json.loads(data[len("data: "):])
        assert "event" in event and "seq" in event
        req.close()

    def test_unknown_path_404(self, dash_stack):
        dash, _ = dash_stack
        with pytest.raises(urllib.error.HTTPError) as err:
            _get_json(dash.address + "/api/nope")
        assert err.value.code == 404


class TestRemoteBackend:
    def test_dashboard_over_tcp(self, live_service):
        srv = live_service
        backend = RemoteBackend(srv.host, srv.port)
        with DashboardServer(backend, port=0) as dash:
            jobs = _get_json(dash.address + "/api/jobs")["jobs"]
            assert jobs and jobs[0]["state"] == "done"
            payload = _get_json(dash.address + "/api/events?after=0")
            assert payload["events"]
            stats = _get_json(dash.address + "/api/stats")["stats"]
            assert "tasks_in_flight" in stats
