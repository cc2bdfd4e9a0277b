"""Unit tests for the fleet telemetry plane (:mod:`repro.obs`).

The registry's contract is what the distributed merge leans on:
counters and histograms are commutative/associative sums and gauges
are maxes, so :func:`merge_snapshots` is order-independent and
lossless however snapshot files happen to list on the shared mount —
proved here property-style with hypothesis.  The rest covers the
thread-safety of concurrent increments, the Prometheus text encoder's
edge cases (label escaping, zero-observation histograms, the
``le="+Inf"`` cap), the span tracer's parent/child bookkeeping and
torn-line tolerance, and the durable snapshot publish/merge cycle.
"""

from __future__ import annotations

import json
import sys
import threading
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import metrics as metrics_mod
from repro.obs import publish as obs_publish
from repro.obs import trace as trace_mod
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    merge_snapshots,
    prometheus_text,
)


@pytest.fixture()
def registry():
    return MetricsRegistry()


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counters_accumulate_per_label_set(self, registry):
        registry.inc("requests_total", status="200")
        registry.inc("requests_total", 2.0, status="200")
        registry.inc("requests_total", status="500")
        snap = registry.snapshot()
        values = {
            (c["name"], c["labels"]["status"]): c["value"]
            for c in snap["counters"]
        }
        assert values[("requests_total", "200")] == 3.0
        assert values[("requests_total", "500")] == 1.0

    def test_gauge_overwrites(self, registry):
        registry.set_gauge("depth", 7)
        registry.set_gauge("depth", 3)
        assert registry.snapshot()["gauges"] == [
            {"name": "depth", "labels": {}, "value": 3.0}
        ]

    def test_histogram_buckets_and_overflow(self, registry):
        registry.observe("lat", 0.75)
        registry.observe("lat", 7.0)
        registry.observe("lat", 999.0)
        [series] = registry.snapshot()["histograms"]
        assert series["bounds"] == list(DEFAULT_BUCKETS)
        expected = [0] * (len(DEFAULT_BUCKETS) + 1)
        expected[DEFAULT_BUCKETS.index(1.0)] = 1
        expected[DEFAULT_BUCKETS.index(10.0)] = 1
        expected[-1] = 1  # last slot = +Inf overflow
        assert series["counts"] == expected
        assert series["sum"] == pytest.approx(1006.75)

    def test_boundary_value_lands_in_its_bucket(self, registry):
        # Prometheus buckets are upper-inclusive (le = less-or-equal).
        registry.observe("lat", 1.0)
        [series] = registry.snapshot()["histograms"]
        assert series["counts"][DEFAULT_BUCKETS.index(1.0)] == 1
        assert sum(series["counts"]) == 1

    def test_timer_observes_one_sample(self, registry):
        with registry.timer("op_seconds"):
            pass
        [series] = registry.snapshot()["histograms"]
        assert series["name"] == "op_seconds"
        assert sum(series["counts"]) == 1
        assert series["bounds"] == list(DEFAULT_BUCKETS)

    def test_snapshot_is_json_safe_and_deterministic(self, registry):
        registry.inc("b_total")
        registry.inc("a_total", route="/x")
        registry.set_gauge("g", 1.5)
        registry.observe("h", 0.2)
        first = registry.snapshot()
        assert json.loads(json.dumps(first)) == first
        assert first == registry.snapshot()
        assert [c["name"] for c in first["counters"]] == ["a_total", "b_total"]

    def test_absorb_merges_a_published_snapshot(self, registry):
        registry.inc("cells_total", 2)
        other = MetricsRegistry()
        other.inc("cells_total", 3)
        other.set_gauge("depth", 9)
        registry.absorb(other.snapshot())
        snap = registry.snapshot()
        assert snap["counters"] == [
            {"name": "cells_total", "labels": {}, "value": 5.0}
        ]
        assert snap["gauges"] == [{"name": "depth", "labels": {}, "value": 9.0}]

    def test_reset_clears_everything(self, registry):
        registry.inc("c")
        registry.set_gauge("g", 1)
        registry.observe("h", 0.1)
        registry.reset()
        assert registry.snapshot() == {
            "schema": 1, "counters": [], "gauges": [], "histograms": [],
        }

    def test_concurrent_increments_lose_nothing(self, registry):
        threads_n, per_thread = 8, 500

        def worker():
            for _ in range(per_thread):
                registry.inc("hits_total")
                registry.observe("lat", 0.01)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = registry.snapshot()
        assert snap["counters"][0]["value"] == threads_n * per_thread
        assert sum(snap["histograms"][0]["counts"]) == threads_n * per_thread

    def test_absorb_loses_no_concurrent_increment(self, registry):
        # The fold runs under the lock: an absorb that copied the
        # registry, merged outside the lock and swapped the copy back
        # would drop every increment made in between.
        increments = 20_000
        other = MetricsRegistry()
        other.set_gauge("depth", 1)
        published = other.snapshot()
        absorbing = threading.Event()
        done = threading.Event()

        def absorber():
            while not done.is_set():
                registry.absorb(published)
                absorbing.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=absorber)
        thread.start()
        try:
            assert absorbing.wait(10.0)
            for _ in range(increments):
                registry.inc("hits_total")
        finally:
            done.set()
            thread.join(10.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert registry.snapshot()["counters"] == [
            {"name": "hits_total", "labels": {}, "value": float(increments)}
        ]


# ----------------------------------------------------------------------
# Merge properties (hypothesis)
# ----------------------------------------------------------------------
_LABELS = st.dictionaries(
    st.sampled_from(["worker", "site"]),
    st.sampled_from(["a", "b"]),
    max_size=2,
)
# Integer-valued floats keep sums exact, so order-independence is a
# true equality, not an approximate one.
_COUNTER = st.fixed_dictionaries({
    "name": st.sampled_from(["x_total", "y_total"]),
    "labels": _LABELS,
    "value": st.integers(0, 1000).map(float),
})
_GAUGE = st.fixed_dictionaries({
    "name": st.sampled_from(["depth", "load"]),
    "labels": _LABELS,
    "value": st.integers(-50, 50).map(float),
})
_BOUNDS = [0.1, 1.0]
_HIST = st.fixed_dictionaries({
    "name": st.just("h_seconds"),
    "labels": _LABELS,
    "bounds": st.just(_BOUNDS),
    "counts": st.lists(st.integers(0, 9), min_size=3, max_size=3),
    "sum": st.integers(0, 100).map(float),
})
_SNAPSHOT = st.fixed_dictionaries({
    "schema": st.just(1),
    "counters": st.lists(_COUNTER, max_size=4),
    "gauges": st.lists(_GAUGE, max_size=3),
    "histograms": st.lists(_HIST, max_size=3),
})


class TestMergeProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_SNAPSHOT, max_size=5), st.randoms(use_true_random=False))
    def test_merge_is_order_independent(self, snaps, rng):
        shuffled = list(snaps)
        rng.shuffle(shuffled)
        assert merge_snapshots(snaps) == merge_snapshots(shuffled)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_SNAPSHOT, max_size=5))
    def test_merge_is_lossless(self, snaps):
        merged = merge_snapshots(snaps)
        # Counters: the merged total is exactly the input total.
        assert sum(c["value"] for c in merged["counters"]) == sum(
            c["value"] for snap in snaps for c in snap["counters"]
        )
        # Histograms: observation counts and sums vector-add.
        assert sum(
            n for h in merged["histograms"] for n in h["counts"]
        ) == sum(n for snap in snaps for h in snap["histograms"] for n in h["counts"])
        assert sum(h["sum"] for h in merged["histograms"]) == sum(
            h["sum"] for snap in snaps for h in snap["histograms"]
        )
        # Gauges: the merged value is the max over its contributors.
        for gauge in merged["gauges"]:
            contributors = [
                g["value"]
                for snap in snaps
                for g in snap["gauges"]
                if g["name"] == gauge["name"] and g["labels"] == gauge["labels"]
            ]
            assert gauge["value"] == max(contributors)

    @settings(max_examples=30, deadline=None)
    @given(_SNAPSHOT)
    def test_empty_snapshot_is_merge_identity(self, snap):
        empty = {"schema": 1, "counters": [], "gauges": [], "histograms": []}
        assert merge_snapshots([snap, empty]) == merge_snapshots([snap])


# ----------------------------------------------------------------------
# Prometheus text encoding
# ----------------------------------------------------------------------
#: Every byte ``prometheus_text`` renders for the sequence in
#: ``test_exposition_bytes_are_pinned``.
_PINNED_EXPOSITION = """\
# TYPE repro_cache_store_seconds histogram
repro_cache_store_seconds_bucket{le="0.005"} 0
repro_cache_store_seconds_bucket{le="0.01"} 0
repro_cache_store_seconds_bucket{le="0.025"} 0
repro_cache_store_seconds_bucket{le="0.05"} 0
repro_cache_store_seconds_bucket{le="0.1"} 0
repro_cache_store_seconds_bucket{le="0.25"} 1
repro_cache_store_seconds_bucket{le="0.5"} 1
repro_cache_store_seconds_bucket{le="1"} 1
repro_cache_store_seconds_bucket{le="2.5"} 1
repro_cache_store_seconds_bucket{le="5"} 1
repro_cache_store_seconds_bucket{le="10"} 1
repro_cache_store_seconds_bucket{le="30"} 1
repro_cache_store_seconds_bucket{le="60"} 1
repro_cache_store_seconds_bucket{le="120"} 1
repro_cache_store_seconds_bucket{le="300"} 1
repro_cache_store_seconds_bucket{le="+Inf"} 1
repro_cache_store_seconds_sum 0.25
repro_cache_store_seconds_count 1
# TYPE repro_http_requests_total counter
repro_http_requests_total{method="GET",route="/v1/sweeps/{id}",status="404"} 2
repro_http_requests_total{method="POST",route="/v1/sweeps",status="200"} 1
# TYPE repro_odd_total counter
repro_odd_total{route="a\\\\b\\"c\\nd"} 1
# TYPE repro_queue_claims_total counter
repro_queue_claims_total{worker="w2"} 3
# TYPE repro_queue_depth gauge
repro_queue_depth 9
# TYPE repro_worker_cell_seconds histogram
repro_worker_cell_seconds_bucket{worker="w1",le="0.005"} 1
repro_worker_cell_seconds_bucket{worker="w1",le="0.01"} 2
repro_worker_cell_seconds_bucket{worker="w1",le="0.025"} 2
repro_worker_cell_seconds_bucket{worker="w1",le="0.05"} 3
repro_worker_cell_seconds_bucket{worker="w1",le="0.1"} 3
repro_worker_cell_seconds_bucket{worker="w1",le="0.25"} 3
repro_worker_cell_seconds_bucket{worker="w1",le="0.5"} 3
repro_worker_cell_seconds_bucket{worker="w1",le="1"} 4
repro_worker_cell_seconds_bucket{worker="w1",le="2.5"} 5
repro_worker_cell_seconds_bucket{worker="w1",le="5"} 5
repro_worker_cell_seconds_bucket{worker="w1",le="10"} 5
repro_worker_cell_seconds_bucket{worker="w1",le="30"} 5
repro_worker_cell_seconds_bucket{worker="w1",le="60"} 5
repro_worker_cell_seconds_bucket{worker="w1",le="120"} 5
repro_worker_cell_seconds_bucket{worker="w1",le="300"} 6
repro_worker_cell_seconds_bucket{worker="w1",le="+Inf"} 7
repro_worker_cell_seconds_sum{worker="w1"} 604.5525
repro_worker_cell_seconds_count{worker="w1"} 7
"""


class TestPrometheusText:
    def test_counter_and_type_line(self, registry):
        registry.inc("jobs_total", 3, state="done")
        text = prometheus_text(registry.snapshot())
        assert "# TYPE jobs_total counter" in text
        assert 'jobs_total{state="done"} 3' in text
        assert text.endswith("\n")

    def test_label_values_are_escaped(self, registry):
        registry.inc("odd_total", route='a\\b"c\nd')
        text = prometheus_text(registry.snapshot())
        assert 'route="a\\\\b\\"c\\nd"' in text

    def test_histogram_buckets_are_cumulative_with_inf_cap(self, registry):
        registry.observe("lat", 0.05)
        registry.observe("lat", 0.5)
        registry.observe("lat", 400.0)
        text = prometheus_text(registry.snapshot())
        assert '# TYPE lat histogram' in text
        assert 'lat_bucket{le="0.1"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="300"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 400.55" in text
        assert "lat_count 3" in text

    def test_empty_histogram_series_still_encodes(self):
        # A snapshot can legitimately carry a zero-observation series
        # (a merge of a worker that initialised but never observed).
        snap = {
            "schema": 1,
            "counters": [],
            "gauges": [],
            "histograms": [
                {
                    "name": "quiet",
                    "labels": {},
                    "bounds": [1.0],
                    "counts": [0, 0],
                    "sum": 0.0,
                }
            ],
        }
        text = prometheus_text(snap)
        assert 'quiet_bucket{le="1"} 0' in text
        assert 'quiet_bucket{le="+Inf"} 0' in text
        assert "quiet_count 0" in text

    def test_exposition_bytes_are_pinned(self, registry, monkeypatch):
        # Scrapers parse the whole text, so every byte is pinned: type
        # lines, series order, label escaping, cumulative buckets and
        # number formatting.
        ticks = iter([10.0, 10.25])
        monkeypatch.setattr(
            metrics_mod, "time", SimpleNamespace(monotonic=lambda: next(ticks))
        )
        registry.inc(
            "repro_http_requests_total", route="/v1/sweeps", method="POST",
            status="200",
        )
        registry.inc(
            "repro_http_requests_total", 2, route="/v1/sweeps/{id}",
            method="GET", status="404",
        )
        registry.inc("repro_odd_total", route='a\\b"c\nd')
        registry.set_gauge("repro_queue_depth", 7)
        # On an edge, between edges, and above the last edge.
        for value in (0.005, 0.0075, 1.0, 2.0, 300.0, 301.5):
            registry.observe("repro_worker_cell_seconds", value, worker="w1")
        with registry.timer("repro_cache_store_seconds"):
            pass
        other = MetricsRegistry()
        other.inc("repro_queue_claims_total", 3, worker="w2")
        other.set_gauge("repro_queue_depth", 9)
        other.observe("repro_worker_cell_seconds", 0.04, worker="w1")
        registry.absorb(other.snapshot())
        assert prometheus_text(registry.snapshot()) == _PINNED_EXPOSITION

    def test_empty_snapshot_encodes_to_empty_string(self):
        assert prometheus_text(
            {"schema": 1, "counters": [], "gauges": [], "histograms": []}
        ) == ""


# ----------------------------------------------------------------------
# Span tracer
# ----------------------------------------------------------------------
@pytest.fixture()
def span_log(tmp_path):
    path = tmp_path / "spans.ndjson"
    trace_mod.configure(path)
    try:
        yield path
    finally:
        trace_mod.configure(None)


class TestTracer:
    def test_unconfigured_span_is_a_no_op(self, tmp_path):
        trace_mod.configure(None)
        with trace_mod.span("ghost"):
            pass
        assert not trace_mod.configured()

    def test_nested_spans_record_parentage(self, span_log):
        with trace_mod.span("outer", cell="a"):
            with trace_mod.span("inner"):
                pass
        events = {e["name"]: e for e in trace_mod.load_events(span_log)}
        assert events["inner"]["parent_id"] == events["outer"]["span_id"]
        assert events["outer"]["parent_id"] is None
        assert events["outer"]["args"] == {"cell": "a"}
        assert events["inner"]["dur_us"] >= 0

    def test_torn_trailing_line_is_skipped(self, span_log):
        with trace_mod.span("whole"):
            pass
        with open(span_log, "a", encoding="utf-8") as handle:
            handle.write('{"name": "torn", "span')  # crash mid-write
        events = trace_mod.load_events(span_log)
        assert [e["name"] for e in events] == ["whole"]

    def test_chrome_export_shape(self, span_log):
        with trace_mod.span("cell", attempt=1):
            pass
        chrome = trace_mod.chrome_trace(trace_mod.load_events(span_log))
        assert chrome["displayTimeUnit"] == "ms"
        [event] = chrome["traceEvents"]
        assert event["ph"] == "X"
        assert event["name"] == "cell"
        assert event["args"]["attempt"] == 1
        # The text form is valid JSON ending in a newline.
        text = trace_mod.chrome_trace_text(trace_mod.load_events(span_log))
        assert json.loads(text)["traceEvents"]
        assert text.endswith("\n")


# ----------------------------------------------------------------------
# Durable snapshot publish + fleet merge
# ----------------------------------------------------------------------
class TestPublish:
    def payload(self, worker, executed=1, registry=None, **kwargs):
        registry = registry or MetricsRegistry()
        return obs_publish.snapshot_payload(
            worker,
            uptime_seconds=10.0,
            executed=executed,
            registry=registry,
            **kwargs,
        )

    def test_publish_and_load_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.inc("repro_queue_claims_total", 4)
        path = obs_publish.publish_snapshot(
            tmp_path, "w1", self.payload("w1", registry=registry), fsync=False
        )
        assert path == obs_publish.metrics_dir(tmp_path) / "w1.json"
        [snap] = obs_publish.load_snapshots(tmp_path)
        assert snap["worker"] == "w1"
        assert snap["metrics"]["counters"][0]["value"] == 4.0

    def test_worker_id_is_sanitised_for_the_filesystem(self, tmp_path):
        path = obs_publish.publish_snapshot(
            tmp_path, "host/1:2 x", self.payload("host/1:2 x"), fsync=False
        )
        assert path.name == "host_1_2_x.json"

    def test_load_skips_torn_snapshots(self, tmp_path):
        obs_publish.publish_snapshot(
            tmp_path, "good", self.payload("good"), fsync=False
        )
        (obs_publish.metrics_dir(tmp_path) / "torn.json").write_text('{"wor')
        snapshots = obs_publish.load_snapshots(tmp_path)
        assert [s["worker"] for s in snapshots] == ["good"]

    def test_load_missing_directory_is_empty(self, tmp_path):
        assert obs_publish.load_snapshots(tmp_path / "absent") == []

    def test_merge_fleet_sums_and_ranks(self):
        r1, r2 = MetricsRegistry(), MetricsRegistry()
        r1.inc("repro_lease_overthrows_total")
        r2.inc("repro_lease_overthrows_total", 2)
        fleet = obs_publish.merge_fleet([
            self.payload(
                "w2", executed=3, registry=r2,
                slowest_cells=[{"name": "b", "seconds": 9.0, "attempt": 2}],
            ),
            self.payload(
                "w1", executed=1, registry=r1,
                slowest_cells=[{"name": "a", "seconds": 1.0, "attempt": 1}],
            ),
        ])
        assert [w["worker"] for w in fleet["workers"]] == ["w1", "w2"]
        assert [c["name"] for c in fleet["slowest_cells"]] == ["b", "a"]
        [counter] = fleet["metrics"]["counters"]
        assert counter["value"] == 3.0

    def test_publisher_publishes_on_start_and_final_flush(self, tmp_path):
        registry = MetricsRegistry()
        calls = []

        def payload_fn():
            calls.append(1)
            return self.payload("w", executed=len(calls), registry=registry)

        publisher = obs_publish.MetricsPublisher(
            tmp_path, "w", payload_fn, interval=60.0, fsync=False
        ).start()
        try:
            [snap] = obs_publish.load_snapshots(tmp_path)
            assert snap["executed"] == 1  # immediate publish on start
        finally:
            publisher.stop()
        [snap] = obs_publish.load_snapshots(tmp_path)
        assert snap["executed"] == len(calls)  # final flush on stop

    def test_publisher_swallows_publish_failures(self, tmp_path):
        blocker = tmp_path / "queue"
        blocker.write_text("a file where the queue dir should be")
        publisher = obs_publish.MetricsPublisher(
            blocker, "w", lambda: self.payload("w"), interval=60.0, fsync=False
        )
        publisher.publish()  # mkdir fails with OSError; must not raise
        publisher.start()
        publisher.stop()
