"""The result path: one encoding per result, traces rebuilt on read.

A process worker encodes a cell's result once; the scheduler holds that
JSON text and the store and the TCP server splice it into what they
write.  A result read back by ``from_dict`` keeps its trace rows and its
rank traffic raw until they are queried, and stores them back as read.
"""

from __future__ import annotations

import json
import socket
import types
from dataclasses import astuple

import pytest

from repro.bench.engine import ExperimentSpec, SweepRunner, run_spec
from repro.bench.store import STORE_SCHEMA, ResultStore, substrate_fingerprint
from repro.bench.surrogate import SurrogateScreen, predicted_result
from repro.core.context import ExecutionConfig
from repro.core.executor import FSConfig, PipelineResult
from repro.errors import ConfigurationError
from repro.core.pipeline import NodeAssignment
from repro.scenario import ScenarioResult, ScenarioSpec, TenantSpec, run_scenario
from repro.service import EventFeed, ExperimentScheduler, model
from repro.service.server import ExperimentServer
from repro.service.tasks import run_spec_payload
from repro.trace.record import Phase

CFG = ExecutionConfig(n_cpis=3, warmup=1)


def _cell(params, **kw):
    return ExperimentSpec(assignment=NodeAssignment.balanced(params, 14),
                          fs=FSConfig("pfs", 8), params=params, **kw)


def _results(params):
    """(name, live result) for every result shape the path carries."""
    plain = _cell(params, cfg=CFG)
    yield "plain", run_spec(plain)
    yield "metered", run_spec(_cell(
        params, cfg=ExecutionConfig(n_cpis=3, warmup=1, metrics_interval=0.5)))
    dropped = run_spec(_cell(
        params, cfg=ExecutionConfig(n_cpis=3, warmup=1, read_deadline=1e-6)))
    assert dropped.dropped_cpis
    yield "deadline", dropped
    yield "predicted", predicted_result(plain, SurrogateScreen().predict(plain))
    a = NodeAssignment.balanced(params, 14)
    yield "two-tenant", run_scenario(ScenarioSpec(
        tenants=(TenantSpec(a, name="a", cfg=CFG),
                 TenantSpec(a, name="b", pipeline="separate-io", cfg=CFG)),
        fs=FSConfig("pfs", 8), params=params,
    ))


def _pipelines(result):
    if isinstance(result, ScenarioResult):
        return list(result.tenants.values())
    return [result]


def _dicts(d):
    """The pipeline result dicts inside a result dict."""
    return list(d["tenants"].values()) if "tenants" in d else [d]


def _answers(result):
    """Every trace and traffic query, over every task and CPI."""
    out = []
    for r in _pipelines(result):
        trace = r.trace
        out.append((len(trace), trace.tasks(), r.task_traffic(),
                    dict(r.rank_traffic or {})))
        for task in trace.tasks():
            for cpi in trace.cpis(task):
                out.append((
                    task, cpi,
                    trace.phase_time(task, cpi, Phase.RECV),
                    trace.phase_time(task, cpi, Phase.COMPUTE, agg="mean"),
                    [astuple(rec) for rec in trace.for_task_cpi(task, cpi)],
                ))
    return out


class TestLazyRoundTrip:
    @pytest.fixture(scope="class")
    def results(self):
        from repro.stap.params import STAPParams

        params = STAPParams(
            n_channels=8, n_pulses=32, n_ranges=256, n_beams=6,
            n_hard_bins=8, n_training=64, pulse_len=16, cfar_window=12,
            cfar_guard=3, pfa=1e-6,
        )
        return list(_results(params))

    def test_untouched_and_queried_results_store_back_as_read(self, results):
        for name, live in results:
            cls = type(live)
            d = json.loads(json.dumps(live.to_dict()))
            text = json.dumps(d)
            clone = cls.from_dict(d)
            for r in _pipelines(clone):
                assert "records" not in vars(r.trace), name
            # Untouched, the rows and the traffic are handed back as read.
            for got, read in zip(_dicts(clone.to_dict()), _dicts(d)):
                assert got["trace"]["records"] is read["trace"]["records"]
                assert got.get("rank_traffic") is read.get("rank_traffic")
            assert json.dumps(clone.to_dict()) == text, name
            assert _answers(clone) == _answers(live), name
            for r in _pipelines(clone):
                assert "records" in vars(r.trace), name
            assert json.dumps(clone.to_dict()) == text, name

    def test_rank_traffic_decodes_on_first_lookup(self, results):
        live = dict(results)["plain"]
        clone = PipelineResult.from_dict(
            json.loads(json.dumps(live.to_dict())))
        assert clone.rank_traffic == live.rank_traffic
        assert all(isinstance(k, tuple) for k in clone.rank_traffic)
        assert clone.to_dict()["rank_traffic"] == live.to_dict()["rank_traffic"]


@pytest.fixture
def spy(monkeypatch):
    """Counts the result encodes and decodes ResultPayload makes in this
    process."""
    calls = {"dumps": 0, "loads": 0}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(json, name)(*args, **kwargs)
        return call

    monkeypatch.setattr(model, "json", types.SimpleNamespace(
        dumps=counted("dumps"), loads=counted("loads")))
    return calls


def _read_lines(port, req):
    with socket.create_connection(("127.0.0.1", port), timeout=60) as conn:
        conn.sendall((json.dumps(req) + "\n").encode("utf-8"))
        with conn.makefile("rb") as rfile:
            return [line.decode("utf-8") for line in rfile]


class TestOneEncoding:
    def test_server_and_store_forward_the_worker_text(
        self, tmp_path, small_params, spy,
    ):
        spec = _cell(small_params, cfg=ExecutionConfig(n_cpis=2, warmup=0))
        text = json.dumps(run_spec_payload(spec.to_dict()))
        store = ResultStore(tmp_path)
        scheduler = ExperimentScheduler(workers=1, store=store)
        feed = EventFeed().attach(scheduler)
        try:
            with ExperimentServer(scheduler, port=0) as server:
                lines = _read_lines(server.port, {
                    "op": "submit", "specs": [spec.to_dict()],
                    "follow": True,
                })
        finally:
            scheduler.shutdown()
        accepted, result, done = lines
        assert json.loads(done)["event"] == "done"
        head = json.dumps({"event": "result", "index": 0,
                           "key": spec.spec_hash(), "source": "executed"})
        assert result == f'{head[:-1]}, "payload": {text}}}\n'
        # The parent forwarded the worker's text and never decoded it.
        assert spy == {"dumps": 0, "loads": 0}

        envelope = {
            "schema": STORE_SCHEMA,
            "substrate": substrate_fingerprint(),
            "spec_hash": spec.spec_hash(),
            "spec": spec.to_dict(),
            "result": json.loads(text),
        }
        stored = store.path_for(spec.spec_hash()).read_text(encoding="utf-8")
        assert stored == json.dumps(envelope)
        assert store.get_dict(spec) == json.loads(text)

        # Listeners still read the summary the worker sent with the text.
        (event,) = [e for e in feed.since(0)[0] if e["event"] == "result"]
        meas = json.loads(text)["measurement"]
        assert event["throughput"] == meas["throughput"]
        assert event["latency"] == meas["latency"]
        assert event["result_source"] == "simulated"

    def test_inline_sweep_never_encodes(self, small_params, spy):
        spec = _cell(small_params, cfg=ExecutionConfig(n_cpis=2, warmup=0))
        with SweepRunner(jobs=1, store=None) as runner:
            result = runner.run_one(spec)
        assert spy == {"dumps": 0, "loads": 0}
        assert result.to_dict() == run_spec(spec).to_dict()

    def test_process_worker_duplicates_alias_one_dict(self, small_params):
        spec = _cell(small_params, cfg=ExecutionConfig(n_cpis=2, warmup=0))
        with ExperimentScheduler(workers=1) as scheduler:
            out = scheduler.submit([spec, spec]).wait(timeout=60)
        assert out[0] is out[1]
        assert out[0] == run_spec(spec).to_dict()


class TestMalformedEntries:
    """Rows and traffic keys are kept raw but checked when read, so a
    malformed store entry is a miss, not a result that fails later."""

    @pytest.fixture
    def stored(self, tmp_path, small_params):
        spec = _cell(small_params, cfg=ExecutionConfig(n_cpis=2, warmup=0))
        store = ResultStore(tmp_path)
        store.put_dict(spec, run_spec(spec).to_dict())
        assert store.get(spec) is not None
        return store, spec

    @staticmethod
    def _corrupt(store, spec, edit):
        path = store.path_for(spec.spec_hash())
        entry = json.loads(path.read_text(encoding="utf-8"))
        edit(entry["result"])
        path.write_text(json.dumps(entry), encoding="utf-8")
        with pytest.raises(ConfigurationError):
            PipelineResult.from_dict(entry["result"])

    @pytest.mark.parametrize("edit", [
        lambda r: r["trace"]["records"][-1].__setitem__(3, "napping"),
        lambda r: r["trace"]["records"][-1].pop(),
    ], ids=["bad-phase", "short-row"])
    def test_a_bad_trace_row_is_a_miss(self, stored, edit):
        store, spec = stored
        self._corrupt(store, spec, edit)
        assert store.get(spec) is None

    @pytest.mark.parametrize("edit", [
        lambda r: r["rank_traffic"].__setitem__("3-4", [1, 8]),
        lambda r: r["rank_traffic"].__setitem__("x->4", [1, 8]),
        lambda r: r["rank_traffic"].__setitem__("3->4", 8),
    ], ids=["no-arrow", "bad-rank", "bad-count"])
    def test_a_bad_traffic_entry_is_a_miss(self, stored, edit):
        store, spec = stored
        self._corrupt(store, spec, edit)
        assert store.get(spec) is None


class TestPayloadViews:
    """A payload holds one view at a time: the text until its dict is
    read, then the dict; a dict payload encodes per read, keeping no
    text."""

    def test_dict_payload_keeps_no_text(self, spy):
        d = {"measurement": {"throughput": 2.0, "latency": 0.5}, "x": [1]}
        p = model.ResultPayload(d)
        assert p.text == p.text == json.dumps(d)
        assert spy == {"dumps": 2, "loads": 0}
        assert p.data is d

    def test_text_payload_drops_its_text_once_decoded(self, spy):
        d = {"measurement": {"throughput": 2.0, "latency": 0.5}, "x": [1]}
        p = model.ResultPayload.encoded(d)
        assert (p.throughput, p.latency, p.source) == (2.0, 0.5, "simulated")
        assert p.text is p.text
        assert p.data is p.data
        assert p.data == d
        assert spy == {"dumps": 1, "loads": 1}
        assert p.text == json.dumps(d)
        assert spy == {"dumps": 2, "loads": 1}
