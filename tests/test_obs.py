"""Observability subsystem: tracer, metrics, RunReport, acceptance.

Covers the subsystem's acceptance criteria: a 2-worker observed run
whose report byte totals equal the CommRecord exactly, a Chrome-trace
export that is valid JSON with correctly nested spans, bit-identical
reports across same-seed runs, and observe-off runs identical to
uninstrumented training.
"""

import json

import numpy as np
import pytest

from repro import TrainConfig, split_edges
from repro.core import run_framework
from repro.graph import synthetic_lp_graph
from repro.obs import (
    LOSS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    RunObserver,
    RunReport,
    Tracer,
    chrome_trace,
)
from repro.obs.__main__ import main as obs_cli


# -- primitives -----------------------------------------------------------


class TestTracer:
    def test_nested_spans_and_clock(self):
        tr = Tracer()
        with tr.span("outer", worker=0):
            tr.advance(1.0)
            with tr.span("inner"):
                tr.advance(0.5)
        assert tr.now_s == pytest.approx(1.5)
        [outer] = tr.roots
        assert outer.name == "outer"
        assert outer.duration_s == pytest.approx(1.5)
        [inner] = outer.children
        assert inner.start_s == pytest.approx(1.0)
        assert inner.duration_s == pytest.approx(0.5)
        assert outer.self_s == pytest.approx(1.0)

    def test_negative_advance_rejected(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            tr.advance(-1.0)

    def test_span_attrs(self):
        tr = Tracer()
        with tr.span("s", worker=3, nbytes=128) as sp:
            sp.attrs["late"] = True
        assert tr.roots[0].attrs == {"worker": 3, "nbytes": 128,
                                     "late": True}

    def test_chrome_trace_format(self):
        tr = Tracer()
        with tr.span("epoch"):
            with tr.span("batch", worker=1):
                tr.advance(0.25)
        payload = chrome_trace(tr.to_dicts())
        text = json.dumps(payload)  # must be JSON-serializable
        decoded = json.loads(text)
        events = decoded["traceEvents"]
        assert decoded["displayTimeUnit"] == "ms"
        assert all(e["ph"] == "X" for e in events)
        batch = next(e for e in events if e["name"] == "batch")
        assert batch["tid"] == 1
        assert batch["dur"] == pytest.approx(0.25e6)  # microseconds


class TestMetrics:
    def test_counter(self):
        c = Counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge(self):
        g = Gauge("x")
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_buckets(self):
        h = Histogram("x", buckets=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        d = h.to_dict()
        assert d["counts"] == [1, 1, 1]  # <=1, <=2, overflow
        assert d["count"] == 3
        assert h.mean == pytest.approx((0.5 + 1.5 + 99.0) / 3)

    def test_histogram_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("x", buckets=())
        with pytest.raises(ValueError):
            Histogram("x", buckets=(2.0, 1.0))

    def test_registry_kind_conflict(self):
        reg = MetricsRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_registry_reuses_instances(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.counter("a").inc(3)
        assert reg.to_dict()["a"]["value"] == 5


# -- end-to-end acceptance ------------------------------------------------


@pytest.fixture(scope="module")
def observed_setting():
    rng = np.random.default_rng(7)
    graph = synthetic_lp_graph(300, 1200, feature_dim=16,
                               num_communities=6, rng=rng)
    split = split_edges(graph, rng=rng)
    config = TrainConfig(epochs=2, batch_size=64, observe=True, seed=7)
    result = run_framework("splpg", split, 2, config,
                           rng=np.random.default_rng(7))
    return split, config, result


class TestObservedRun:
    def test_report_attached(self, observed_setting):
        _, _, result = observed_setting
        assert isinstance(result.report, RunReport)
        assert result.report.num_workers == 2
        assert result.report.framework == "splpg"

    def test_comm_totals_byte_exact(self, observed_setting):
        _, _, result = observed_setting
        rep, comm = result.report, result.comm_total
        assert rep.comm["feature_bytes"] == comm.feature_bytes
        assert rep.comm["structure_bytes"] == comm.structure_bytes
        assert rep.comm["sync_bytes"] == comm.sync_bytes
        assert rep.comm["total_bytes"] == comm.total_bytes

    def test_metric_counters_mirror_ledger(self, observed_setting):
        _, _, result = observed_setting
        m, comm = result.report.metrics, result.comm_total
        assert m["comm.feature_bytes"]["value"] == comm.feature_bytes
        assert m["comm.structure_bytes"]["value"] == comm.structure_bytes
        assert m["comm.sync_bytes"]["value"] == comm.sync_bytes

    def test_chrome_trace_round_trip(self, observed_setting):
        _, _, result = observed_setting
        payload = json.loads(json.dumps(result.report.chrome_trace()))
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        names = {e["name"] for e in events}
        assert {"epoch", "round", "batch", "sample", "fetch",
                "compute", "sync"} <= names
        # Spans nest: every batch lies inside some round interval.
        rounds = [(e["ts"], e["ts"] + e["dur"])
                  for e in events if e["name"] == "round"]
        for e in events:
            if e["name"] != "batch":
                continue
            assert any(lo <= e["ts"] and e["ts"] + e["dur"] <= hi
                       for lo, hi in rounds)

    def test_same_seed_bit_identical(self, observed_setting):
        split, config, result = observed_setting
        again = run_framework("splpg", split, 2, config,
                              rng=np.random.default_rng(7))
        assert again.report.to_json() == result.report.to_json()

    def test_observe_off_equivalent(self, observed_setting):
        split, config, result = observed_setting
        off = TrainConfig(epochs=2, batch_size=64, observe=False, seed=7)
        plain = run_framework("splpg", split, 2, off,
                              rng=np.random.default_rng(7))
        assert plain.report is None
        assert [h.mean_loss for h in plain.history] == \
               [h.mean_loss for h in result.history]
        assert plain.comm_total == result.comm_total
        assert plain.test.hits == result.test.hits

    def test_report_json_round_trip(self, observed_setting, tmp_path):
        _, _, result = observed_setting
        path = tmp_path / "run.json"
        result.report.save(str(path))
        loaded = RunReport.load(str(path))
        assert loaded.to_json() == result.report.to_json()

    def test_top_spans_ranked(self, observed_setting):
        _, _, result = observed_setting
        top = result.report.top_spans(3)
        assert len(top) == 3
        secs = [s for _, _, s in top]
        assert secs == sorted(secs, reverse=True)

    def test_loss_histogram_populated(self, observed_setting):
        _, _, result = observed_setting
        hist = result.report.metrics["train.loss"]
        assert hist["kind"] == "histogram"
        assert hist["count"] > 0
        assert list(hist["buckets"]) == list(LOSS_BUCKETS)


class TestObserverCostModel:
    def test_transfer_and_compute_seconds(self):
        obs = RunObserver()
        hw = obs.hardware
        assert obs.transfer_seconds(hw.bytes_per_second) == pytest.approx(
            1.0)
        assert obs.transfer_seconds(0, requests=2) == pytest.approx(
            2 * hw.request_latency_s)
        assert obs.compute_seconds(hw.edges_per_second) == pytest.approx(1.0)
        assert obs.sync_seconds(0) == pytest.approx(hw.sync_latency_s)


class TestCli:
    def test_summarize_and_export(self, observed_setting, tmp_path, capsys):
        _, _, result = observed_setting
        report = tmp_path / "run.json"
        result.report.save(str(report))

        assert obs_cli(["summarize", str(report)]) == 0
        out = capsys.readouterr().out
        assert "framework: splpg" in out

        trace = tmp_path / "out.trace.json"
        assert obs_cli(["export", str(report), "-o", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        assert payload["traceEvents"]

    def test_missing_file_exit_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            obs_cli(["summarize", str(tmp_path / "nope.json")])
        assert exc.value.code == 2
