"""Unit tests for the telemetry plane (spans, metrics, snapshot schema).

Every timing assertion runs against an injected fake clock — nothing
here depends on wall time.
"""

import gc
import json
import math
import random

import pytest

from repro.core.cache import CACHE_STAT_KEYS, BlockCache
from repro.core.channel import LocalChannel
from repro.core.datapart import MemoryDataPart
from repro.core.faults import FaultPlane
from repro.core.telemetry import (
    HISTOGRAM_BOUNDS,
    NULL_SPAN,
    TELEMETRY,
    TRANSPORT_TOTAL_KEYS,
    Histogram,
    MetricsRegistry,
    Telemetry,
    render_snapshot,
    render_timeline,
)
from repro.net import Address, FileServer, Network


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, seconds: float) -> None:
        self.t += seconds


@pytest.fixture
def tel():
    return Telemetry(clock=FakeClock())


# -- spans ------------------------------------------------------------------


class TestSpans:
    def test_timing_uses_injected_clock(self, tel):
        span = tel.begin("op.read")
        tel.clock.advance(0.25)
        tel.finish(span)
        assert span.duration_us == pytest.approx(250_000.0)
        assert span.status == "ok"

    def test_nesting_defaults_to_current(self, tel):
        outer = tel.begin("outer", push=True)
        inner = tel.begin("inner")
        assert inner.trace == outer.trace
        assert inner.parent == outer.sid
        tel.finish(inner)
        tel.finish(outer)
        assert tel.current() is None

    def test_context_manager_marks_errors(self, tel):
        with pytest.raises(ValueError):
            with tel.span("app.write"):
                raise ValueError("boom")
        (span,) = tel.spans()
        assert span.status == "error"

    def test_event_is_zero_duration(self, tel):
        parent = tel.begin("op.read", push=True)
        tel.event("origin.retry", attrs={"cause": "transient"})
        tel.finish(parent)
        retry = next(s for s in tel.spans() if s.name == "origin.retry")
        assert retry.duration_us == 0.0
        assert retry.parent == parent.sid

    def test_buffer_bound_drops_oldest(self):
        tel = Telemetry(clock=FakeClock(), buffer_limit=4)
        for i in range(6):
            tel.finish(tel.begin(f"span{i}"))
        info = tel.snapshot()["spans"]
        assert info["buffered"] == 4
        assert info["dropped"] == 2
        assert [s.name for s in tel.spans()] == \
            ["span2", "span3", "span4", "span5"]

    def test_export_jsonl(self, tel, tmp_path):
        with tel.span("a"):
            with tel.span("b"):
                pass
        out = tmp_path / "spans.jsonl"
        assert tel.export_jsonl(out) == 2
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert {line["name"] for line in lines} == {"a", "b"}
        for line in lines:
            assert set(line) == {"trace", "sid", "parent", "name",
                                 "start_us", "end_us", "status", "attrs",
                                 "pid"}

    def test_null_span_is_a_noop_context(self):
        with NULL_SPAN as span:
            assert span is None

    def test_trace_tree_nests_children(self, tel):
        handle = tel.new_trace("file", attrs={"path": "x.af"})
        child = tel.begin("app.read", trace=handle.id, parent=handle.root)
        tel.finish(child)
        tel.finish(handle.root)
        tree = tel.trace_tree(handle.id)
        assert tree["name"] == "file"
        assert [c["name"] for c in tree["children"]] == ["app.read"]


class TestPiggyback:
    def test_collector_ships_and_ingest_rebases(self, tel):
        child = Telemetry(clock=FakeClock())
        child.clock.t = 500.0  # unrelated epoch: clocks must not matter
        collector = child.start_collect()
        span = child.begin("dispatch.read", trace="t1", parent="p1")
        child.clock.advance(0.001)
        child.finish(span)
        wire = child.end_collect(collector, anchor_us=span.start_us)
        assert wire[0]["t"] == 0.0 and wire[0]["e"] == pytest.approx(1000.0)

        anchor = tel.begin("frame.read")
        tel.clock.advance(0.002)
        tel.finish(anchor)
        tel.ingest(wire, anchor=anchor)
        shipped = next(s for s in tel.spans() if s.name == "dispatch.read")
        assert shipped.start_us == anchor.start_us
        assert shipped.duration_us == pytest.approx(1000.0)
        assert shipped.trace == "t1" and shipped.parent == "p1"

    def test_span_routes_to_sink_from_any_thread(self, tel):
        import threading

        collector = tel.start_collect()
        span = tel.begin("frame.read")
        tel.end_collect(collector, anchor_us=0.0)

        # Reopen a new collector; the span is bound to the *old* one,
        # which is closed — finishing must fall through to the buffer.
        worker = threading.Thread(target=tel.finish, args=(span,))
        worker.start()
        worker.join()
        assert span in tel.spans()

    def test_ingest_swallows_malformed_entries(self, tel):
        tel.ingest([{"nonsense": True}, 42], anchor=0.0)
        assert tel.spans() == []


# -- metrics ----------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_roundtrip(self):
        registry = MetricsRegistry()
        registry.counter("hosts.spawned").inc()
        registry.counter("hosts.spawned").inc(2)
        registry.gauge("hosts.pooled").set(3)
        snap = registry.snapshot()
        assert snap["global"]["hosts.spawned"] == 3
        assert snap["global"]["hosts.pooled"] == 3

    def test_scopes_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("sessions", scope="/a.af").inc()
        registry.counter("sessions", scope="/b.af").inc(5)
        snap = registry.snapshot()
        assert snap["scopes"]["/a.af"]["sessions"] == 1
        assert snap["scopes"]["/b.af"]["sessions"] == 5
        assert "sessions" not in snap["global"]

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError, match="Counter"):
            registry.gauge("x")

    def test_reset_zeroes_in_place(self):
        registry = MetricsRegistry()
        counter = registry.counter("kept")
        counter.inc(9)
        registry.reset()
        assert counter.value == 0
        counter.inc()  # the holder's reference still feeds the registry
        assert registry.snapshot()["global"]["kept"] == 1

    def test_histogram_fixed_log_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("transport.latency.read")
        hist.observe(1e-6)     # exactly the first bound
        hist.observe(3.1e-6)   # between 3 µs and 3.25 µs
        hist.observe(4e-6)     # exactly a power of two
        hist.observe(1000.0)   # beyond the last bound: overflow bucket
        snap = hist.snap()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(1000.0000081)
        assert snap["buckets"] == {"le_1e-06": 1, "le_3.25e-06": 1,
                                   "le_4e-06": 1, "le_inf": 1}

    def test_bounds_are_wall_clock_free_constants(self):
        # 28 octaves from 1 µs, each split into 8 equal steps
        assert len(HISTOGRAM_BOUNDS) == 28 * 8
        for octave in range(28):
            base = 1e-6 * 2 ** octave
            steps = HISTOGRAM_BOUNDS[8 * octave:8 * octave + 8]
            assert steps[0] == base
            assert steps == pytest.approx(
                [base * (8 + step) / 8 for step in range(8)], rel=1e-12)
        assert HISTOGRAM_BOUNDS[-1] == pytest.approx(1e-6 * 2 ** 27 * 15 / 8)
        assert all(b / a <= 1.125 + 1e-12 for a, b in
                   zip(HISTOGRAM_BOUNDS, HISTOGRAM_BOUNDS[1:]))

    @pytest.mark.parametrize("seed", range(20))
    def test_percentile_overstates_by_at_most_one_eighth(self, seed):
        rng = random.Random(seed)
        samples = [10 ** rng.uniform(-6, 2) for _ in range(rng.randrange(1, 500))]
        hist = Histogram("h")
        for value in samples:
            hist.observe(value)
        ordered = sorted(samples)
        for q in (0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0):
            exact = ordered[max(1, math.ceil(q * len(ordered))) - 1]
            assert 1.0 <= hist.percentile(q) / exact <= 1.125 + 1e-12

    @pytest.mark.parametrize("seed", range(20))
    def test_component_p95_within_one_eighth_of_the_total(self, seed):
        """A per-request component (queue wait) never exceeds its total,
        so its histogram p95 stays within 12.5% of the exact total p95."""
        rng = random.Random(seed)
        component = Histogram("queue_wait")
        totals = []
        for _ in range(rng.randrange(20, 2000)):
            total = 10 ** rng.uniform(-5, 0)
            totals.append(total)
            component.observe(total * rng.uniform(0.0, 1.0))
        totals.sort()
        exact_p95 = totals[math.ceil(0.95 * len(totals)) - 1]
        assert component.percentile(0.95) <= 1.125 * exact_p95


# -- collector registry / snapshot schema -----------------------------------


class _Owner:
    """A weakref-able stand-in counter owner."""

    def __init__(self, payload):
        self.payload = payload

    def stats(self):
        return dict(self.payload)


class TestCollectorRegistry:
    def test_weakref_entry_dies_with_owner(self, tel):
        owner = _Owner({"hits": 1})
        key = tel.register_collector("cache", "c", owner, _Owner.stats)
        assert tel.snapshot()["cache"][key] == {"hits": 1}
        del owner
        gc.collect()
        assert tel.snapshot()["cache"] == {}

    def test_broken_collector_does_not_break_snapshot(self, tel):
        owner = _Owner(None)  # .stats() raises TypeError
        tel.register_collector("network", "bad", owner, _Owner.stats)
        assert tel.snapshot()["network"] == {}


class TestSnapshotSchema:
    """The acceptance contract: every pre-existing counter family shows
    up under ``snapshot()`` with stable keys."""

    TOP_KEYS = {"transport", "files", "cache", "network", "faults",
                "close_errors", "metrics", "spans"}

    def test_all_families_present_and_stable(self, make_active, tmp_path):
        from repro.core import open_active

        # Exercise one real member of each family in-process.
        network = Network()
        server = network.bind(Address("files.test", 7000), FileServer())
        server.put_file("/blob", b"data")
        plane = FaultPlane(seed=3)
        cache = BlockCache(fetch=lambda o, s: b"", push=lambda o, d: len(d),
                           store=MemoryDataPart())
        app = peer = LocalChannel("schema-test")
        peer.register(1, lambda fields, payload: ({"ok": True}, payload))
        app.request(1, {"cmd": "read"}, b"x")
        app.counters.record_close_error("synthetic close failure")

        path = make_active("repro.sentinels.null:NullFilterSentinel",
                           data=b"hello")
        with open_active(path, "rb", strategy="inproc") as stream:
            stream.read()

        snap = TELEMETRY.snapshot()
        assert self.TOP_KEYS <= set(snap)

        transport = snap["transport"]
        assert set(transport) == {"connections", "totals"}
        assert set(transport["totals"]) == set(TRANSPORT_TOTAL_KEYS)
        assert transport["totals"]["requests_sent"] >= 1
        connection = next(s for key, s in transport["connections"].items()
                          if key.startswith("schema-test"))
        assert {"requests_sent", "replies_received", "per_op",
                "close_errors"} <= set(connection)

        file_entry = next(s for key, s in snap["files"].items()
                          if key.startswith(str(tmp_path)))
        assert {"reads", "writes", "bytes_read", "bytes_written"} \
            <= set(file_entry)

        cache_entry = next(iter(snap["cache"].values()))
        assert set(cache_entry) == set(CACHE_STAT_KEYS)
        assert {"hits", "misses", "prefetch_issued", "prefetch_used",
                "coalesced_flushes", "dirty_bytes"} <= set(cache_entry)
        # flush failures outlive their cache: a registry counter, there
        # from import on
        assert "cache.flush_failures" in snap["metrics"]["global"]

        network_entry = next(iter(snap["network"].values()))
        assert {"requests", "bytes_sent", "bytes_received", "charged_us",
                "partitions", "heals", "partition_drops"} \
            <= set(network_entry)

        assert any(key.startswith("plane-seed-3") for key in snap["faults"])

        # Fault-plane firings leave durable faults.injected.* counters
        # behind (the per-plane "faults" family dies with its plane;
        # the counters are the stable chaos audit trail).
        plane.drop_frame(op="chaos-probe")
        plane.on_send({"cmd": "chaos-probe"})
        refreshed = TELEMETRY.snapshot()
        assert refreshed["metrics"]["global"].get(
            "faults.injected.send.drop", 0) >= 1

        assert set(snap["close_errors"]) == {"last"}
        assert snap["close_errors"]["last"] == "synthetic close failure"
        assert transport["totals"]["close_errors"] >= 1
        assert set(snap["metrics"]) == {"global", "scopes"}
        assert set(snap["spans"]) == {"tracing", "buffered", "dropped"}

        # The registered latency histogram for the exercised op.
        assert "transport.latency.read" in snap["metrics"]["global"]

        app.close()
        peer.close()
        del cache, plane, network  # keep the weak collectors honest


# -- rendering --------------------------------------------------------------


class TestRendering:
    def test_timeline_indents_and_truncates(self, tel):
        with tel.span("app.read", attrs={"offset": 0}):
            for _ in range(3):
                tel.event("origin.retry")
        text = render_timeline(tel.spans(), limit=2)
        assert "span" in text.splitlines()[0]
        assert "app.read  [offset=0]" in text
        assert "... 2 more spans" in text
        assert render_timeline([]) == "(no spans recorded)"

    def test_snapshot_rendering_smoke(self, tel):
        tel.metrics.counter("hosts.spawned").inc()
        text = render_snapshot(tel.snapshot())
        assert "transport totals:" in text
        assert "hosts.spawned: 1" in text
        assert "spans: tracing=off" in text
