"""Engine tests: flattening, bundle I/O, the report schema contract."""

import itertools
import json
import os
import random
import signal

import pytest

from repro.core import create_active, open_active
from repro.core.faults import FaultPlane
from repro.core.hostloop import shared_loop
from repro.core.telemetry import BUNDLE_SCHEMA, TELEMETRY, Histogram
from repro.doctor import engine, spans
from repro.doctor.engine import (
    DOCTOR_SCHEMA,
    Analyzer,
    Evidence,
    Finding,
    build_analyzers,
    flatten_scopes,
    flatten_sections,
    flatten_snapshot,
    known_metric,
    render_report,
    run_doctor,
)
from repro.errors import DoctorError
from repro.net import Address, FileServer, Network

from tests.doctor.conftest import make_evidence, make_snapshot

NULL = "repro.sentinels.null:NullFilterSentinel"
REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"


class TestFlatten:
    def test_registry_metrics_pass_through(self):
        flat = flatten_snapshot(make_snapshot({"shm.bytes": 42,
                                               "shm.slots_leased": 3}))
        assert flat["shm.bytes"] == 42
        assert flat["shm.slots_leased"] == 3

    def test_cache_fields_sum_except_watermarks(self):
        snap = make_snapshot(cache={
            "a": {"hits": 2, "misses": 1, "window": 4,
                  "dirty_high_water": 10},
            "b": {"hits": 3, "misses": 0, "window": 8,
                  "dirty_high_water": 6},
        })
        flat = flatten_snapshot(snap)
        assert flat["cache.hits"] == 5
        assert flat["cache.misses"] == 1
        assert flat["cache.window"] == 8          # max, not sum
        assert flat["cache.dirty_high_water"] == 10

    def test_histograms_gain_percentiles(self):
        hist = {"count": 4, "sum": 1.0,
                "buckets": {"le_0.001": 2, "le_0.1": 1, "le_inf": 1}}
        flat = flatten_snapshot(make_snapshot({"host.queue_wait_s": hist}))
        assert flat["host.queue_wait_s.count"] == 4
        assert flat["host.queue_wait_s.p50"] == 0.001
        assert flat["host.queue_wait_s.p95"] > 0.001

    @pytest.mark.parametrize("seed", range(5))
    def test_snapshot_percentiles_match_the_live_histogram(self, seed):
        """The doctor reads p50/p95 off a snapshot exactly as the live
        histogram computes them, from sub-µs to overflow samples."""
        rng = random.Random(seed)
        hists = [Histogram(f"h{i}") for i in range(3)]
        for hist in hists:
            for _ in range(rng.randrange(1, 400)):
                hist.observe(10 ** rng.uniform(-7, 2.5))
        flat = flatten_snapshot(make_snapshot(
            {hist.name: hist.snap() for hist in hists}))
        for hist in hists:
            assert flat[f"{hist.name}.p50"] == hist.percentile(0.50)
            assert flat[f"{hist.name}.p95"] == hist.percentile(0.95)

    def test_ping_overlays_host_gauges(self):
        snap = make_snapshot(host={"af-loop#1": {"host.inflight": 5,
                                                 "host.rejects": 0}})
        ping = {"host": {"host.inflight": 1, "host.rejects": 2},
                "lat": {"queue_wait_p95_us": 900.0},
                "sessions": 3, "threads": 2}
        flat = flatten_snapshot(snap, ping=ping)
        assert flat["host.inflight"] == 1       # live beats section
        assert flat["host.rejects"] == 2
        assert flat["host.lat.queue_wait_p95_us"] == 900.0
        assert flat["host.sessions"] == 3

        # The input every app process has: its own serving loop and its
        # own registry.  Neither may shadow the serving host's gauges.
        shared_loop()
        ping = {"host": {"host.backpressure.stalls": 5, "host.inflight": 40,
                         "host.channels.active": 900}}
        flat = flatten_snapshot(TELEMETRY.snapshot(), ping=ping)
        assert (flat["host.backpressure.stalls"], flat["host.inflight"],
                flat["host.channels.active"]) == (5, 40, 900)

    def test_live_capture_keeps_the_host_gauges(self, tmp_path):
        path = tmp_path / "live.af"
        create_active(path, NULL, data=b"live " * 4096)
        evidence = Evidence.capture_live(str(path))
        assert evidence.ping is not None
        for key, value in evidence.ping["host"].items():
            assert evidence.flat[key] == value, key
        assert evidence.flat["host.channels.active"] >= 1

    def test_faults_and_transport_and_bookkeeping(self):
        snap = make_snapshot(
            faults={"plane#1": {"send:kill": 2}},
            transport={"totals": {"requests_sent": 9,
                                  "requests_failed": 1,
                                  "close_errors": 2}},
            spans={"tracing": True, "buffered": 5, "dropped": 3},
            close_errors={"last": "BrokenPipeError"},
        )
        flat = flatten_snapshot(snap)
        assert flat["faults.fired.send:kill"] == 2
        assert flat["transport.requests_sent"] == 9
        assert flat["spans.dropped"] == 3
        assert flat["transport.close_errors"] == 2

    def test_scoped_view_merges_metrics_and_file_stats(self):
        snap = make_snapshot(
            scopes={"a.af": {"host.respawns": 4}},
            files={"a.af#1": {"reads": 3, "bytes_read": 300},
                   "a.af#2": {"reads": 1, "bytes_read": 100}},
        )
        scoped = flatten_scopes(snap)
        assert scoped["a.af"]["host.respawns"] == 4
        assert scoped["a.af"]["file.reads"] == 4   # opens of one path sum
        assert scoped["a.af"]["file.bytes_read"] == 400

    def test_known_metric_catalog_covers_prefix_families(self):
        assert known_metric("shm.fallback_inline")
        assert known_metric("faults.fired.send:kill")
        assert known_metric("faults.injected.recv.drop")
        assert known_metric("faults.injected.resource.disk-full")
        assert known_metric("sessions.opened.thread")
        assert known_metric("transport.latency.read.p95")
        assert not known_metric("made.up.metric")
        # families are exact: only the actions their sources allow
        assert not known_metric("faults.fired.kill-host")
        assert not known_metric("faults.injected.recv.kill")
        assert not known_metric("sessions.opened.fork")
        # the duplicate emitters are gone
        assert not known_metric("close_errors.count")
        assert not known_metric("host.rejects.total")


@pytest.fixture(scope="module")
def capture(tmp_path_factory):
    """A representative evidence capture: a thread-strategy open of a
    remote file (memory cache, write-behind) over a Network; a
    process-control open that survives one host kill, with its ping;
    a fault plane that fired once."""
    workdir = tmp_path_factory.mktemp("capture")
    network = Network()
    server = network.bind(Address("files.test", 7000), FileServer())
    server.put_file("data/blob.bin", bytes(range(256)) * 64)
    remote = workdir / "remote.af"
    create_active(remote, REMOTE, params={
        "address": "files.test:7000", "path": "data/blob.bin",
        "cache": "memory", "writeback": True, "block_size": 1024},
        meta={"data": "memory"})
    local = workdir / "local.af"
    create_active(local, NULL, data=b"local " * 1024)
    plane = FaultPlane(seed=1).drop_frame(op="probe", times=1)
    plane.on_send({"cmd": "probe"})
    with open_active(remote, "r+b", strategy="thread",
                     network=network) as cached, \
            open_active(local, "rb", strategy="process-control") as pc:
        cached.read(4096)
        cached.write(b"dirty")
        assert pc.read(16)
        proc = pc.session.host.proc
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        pc.seek(0)
        assert pc.read(16)  # one respawn, transparently retried
        ping = pc.session.host.ping()
        snap = TELEMETRY.snapshot()
    assert plane.summary() == {"send:drop": 1}
    return snap, ping


class TestOneEmitter:
    """Every flattened key has one emitter, and the doctor's catalog is
    exactly what the emitters spell."""

    def test_sections_and_registry_are_disjoint(self, capture):
        snap, ping = capture
        parts = flatten_sections(snap, ping)
        assert all(parts.values())  # the capture exercises every emitter
        for one, other in itertools.combinations(sorted(parts), 2):
            shared = set(parts[one]) & set(parts[other])
            assert not shared, f"{one} and {other} both emit {shared}"
        scopes = snap["metrics"]["scopes"]
        assert any(metrics.get("host.respawns") for metrics in scopes.values())
        file_keys = {f"file.{fld}" for entry in snap["files"].values()
                     for fld in entry}
        for metrics in scopes.values():
            assert not set(engine._flat_metrics(metrics)) & file_keys

    def test_catalog_matches_the_emitters_both_ways(self, capture):
        snap, ping = capture
        seen = set(flatten_snapshot(snap, ping)).union(
            *flatten_scopes(snap).values())
        assert sorted(key for key in seen if not known_metric(key)) == []
        fixed = {key for key in engine._catalog()
                 if not key.startswith(("faults.", "sessions.opened."))}
        assert sorted(fixed - seen) == []
        assert not hasattr(engine, "KNOWN_METRICS")
        assert not hasattr(engine, "KNOWN_METRIC_PREFIXES")
        assert engine._OPEN_PREFIX == "transport.latency."


class TestBundleIO:
    def test_export_then_load_round_trips(self, tmp_path):
        evidence = make_evidence({"shm.bytes": 10},
                                 before=make_snapshot({"shm.bytes": 4}),
                                 spans=[{"trace": "t", "sid": "s",
                                         "parent": None, "name": "op.read",
                                         "start_us": 0.0, "end_us": 1.0,
                                         "status": "ok", "attrs": {}}],
                                 ping={"ok": True, "host": {}},
                                 chaos_report={"passed": True})
        written = evidence.export(str(tmp_path / "bundle"))
        assert set(written) == {"snapshot.json", "snapshot_before.json",
                                "spans.jsonl", "ping.json",
                                "chaos_report.json", "meta.json"}
        loaded = Evidence.from_bundle(str(tmp_path / "bundle"))
        assert loaded.flat["shm.bytes"] == 10
        assert loaded.flat_before["shm.bytes"] == 4
        assert loaded.spans[0]["name"] == "op.read"
        assert loaded.ping["ok"] is True
        assert loaded.chaos_report["passed"] is True
        assert loaded.meta["schema"] == BUNDLE_SCHEMA

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DoctorError, match="not a directory"):
            Evidence.from_bundle(str(tmp_path / "ghost"))

    def test_missing_snapshot_is_an_error(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        (bundle / "meta.json").write_text('{"kind": "af-evidence"}')
        with pytest.raises(DoctorError, match="missing snapshot.json"):
            Evidence.from_bundle(str(bundle))

    def test_wrong_kind_rejected(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        (bundle / "meta.json").write_text('{"kind": "tarball"}')
        (bundle / "snapshot.json").write_text("{}")
        with pytest.raises(DoctorError, match="af-evidence"):
            Evidence.from_bundle(str(bundle))

    def test_newer_schema_rejected(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        (bundle / "meta.json").write_text(
            json.dumps({"kind": "af-evidence",
                        "schema": BUNDLE_SCHEMA + 1}))
        (bundle / "snapshot.json").write_text("{}")
        with pytest.raises(DoctorError, match="newer"):
            Evidence.from_bundle(str(bundle))

    def test_corrupt_snapshot_json(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        (bundle / "snapshot.json").write_text("{nope")
        with pytest.raises(DoctorError, match="not valid JSON"):
            Evidence.from_bundle(str(bundle))

    def test_bad_span_lines_are_skipped_not_fatal(self, tmp_path):
        bundle = tmp_path / "b"
        bundle.mkdir()
        (bundle / "snapshot.json").write_text("{}")
        (bundle / "spans.jsonl").write_text(
            '{"name": "op.read"}\n'
            'garbage line\n'
            '{"name": "op.write"}\n')
        loaded = Evidence.from_bundle(str(bundle))
        assert [span["name"] for span in loaded.spans] == \
            ["op.read", "op.write"]


class TestReportContract:
    """The report schema is a contract; these tests pin it."""

    TOP_LEVEL = {"schema", "source", "bundle", "analyzers", "findings",
                 "summary", "clean", "fingerprint"}
    FINDING_KEYS = {"check", "severity", "subsystem", "message", "action",
                    "evidence", "scope"}

    def test_top_level_keys_exact(self, clean_evidence):
        report = run_doctor(clean_evidence)
        assert set(report) == self.TOP_LEVEL
        assert report["schema"] == DOCTOR_SCHEMA
        assert report["clean"] is True
        assert set(report["summary"]) == {"critical", "warning", "info"}

    def test_finding_keys_exact(self):
        evidence = make_evidence(
            host={"af-loop#1": {"host.backpressure.stalls": 2}})
        report = run_doctor(evidence)
        assert report["findings"]
        for finding in report["findings"]:
            assert set(finding) == self.FINDING_KEYS

    def test_fingerprint_stable_across_replays(self, tmp_path):
        evidence = make_evidence(
            {"shm.fallback_inline": 5, "shm.slots_leased": 20},
            scopes={"a.af": {"host.respawns": 4}})
        evidence.export(str(tmp_path / "b"))
        first = run_doctor(Evidence.from_bundle(str(tmp_path / "b")))
        second = run_doctor(Evidence.from_bundle(str(tmp_path / "b")))
        assert first["fingerprint"] == second["fingerprint"]
        assert first["fingerprint"]["digest"] == \
            second["fingerprint"]["digest"]

    def test_fingerprint_tracks_findings(self, clean_evidence):
        dirty = make_evidence(
            host={"af-loop#1": {"host.backpressure.stalls": 1}})
        assert run_doctor(clean_evidence)["fingerprint"]["digest"] != \
            run_doctor(dirty)["fingerprint"]["digest"]

    def test_findings_sorted_most_severe_first(self):
        evidence = make_evidence(
            scopes={"a.af": {"host.respawns": 5}},         # critical
            host={"af-loop#1": {"host.backpressure.stalls": 1}},  # info
            transport={"totals": {"close_errors": 1}},     # warning
        )
        report = run_doctor(evidence)
        severities = [finding["severity"]
                      for finding in report["findings"]]
        rank = {"critical": 0, "warning": 1, "info": 2}
        assert severities == sorted(severities, key=rank.__getitem__)

    def test_render_mentions_verdict_and_digest(self, clean_evidence):
        report = run_doctor(clean_evidence)
        text = render_report(report)
        assert "clean" in text
        assert report["fingerprint"]["digest"] in text


class TestRegistry:
    def test_shipped_analyzers_present_and_sorted(self):
        analyzers = build_analyzers()
        names = [analyzer.name for analyzer in analyzers]
        assert names == sorted(names)
        for expected in ("shm-slab-undersized", "respawn-storm",
                         "retry-dominated-opens", "queue-wait-skew",
                         "readahead-collapse"):
            assert expected in names

    def test_bad_severity_from_a_plugin_is_rejected(self, monkeypatch,
                                                    clean_evidence):
        class Broken(Analyzer):
            name = "zz-broken"
            def analyze(self, evidence):
                return [Finding(check=self.name, severity="fatal",
                                subsystem="x", message="boom")]

        monkeypatch.setattr(spans, "ReadaheadCollapse", Broken)
        with pytest.raises(DoctorError, match="invalid severity"):
            run_doctor(clean_evidence)

    def test_duplicate_analyzer_names_rejected(self, monkeypatch):
        class Dupe(Analyzer):
            name = "close-errors"  # collides with a shipped check
            def analyze(self, evidence):
                return []

        monkeypatch.setattr(spans, "ReadaheadCollapse", Dupe)
        with pytest.raises(DoctorError, match="duplicate analyzer"):
            build_analyzers()
