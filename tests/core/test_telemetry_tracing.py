"""Cross-process tracing integration: one span tree per open.

The acceptance bar (ISSUE PR 4): a single ``read()`` on a fault-injected
remote active file yields one exported span tree linking app call →
channel frame → dispatch → retry attempts → origin exchange, with the
respawn (and any journal replay) as cause-labelled children.  Structure
— names, parentage, cause labels — is asserted; timestamps are not.
"""

import json

import pytest

from repro.core import create_active, open_active
from repro.core.dispatch import CONTROL_OP_ALIASES, canonical_control_op
from repro.core.faults import FaultPlane
from repro.core.telemetry import TELEMETRY
from repro.net import Address, FileServer, Network

NULL = "repro.sentinels.null:NullFilterSentinel"
REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"


@pytest.fixture
def traced():
    """Tracing on for the test, fully reset afterwards."""
    TELEMETRY.reset()
    TELEMETRY.enable_tracing()
    yield TELEMETRY
    TELEMETRY.disable_tracing()
    TELEMETRY.reset()


def _by_name(spans):
    index = {}
    for span in spans:
        index.setdefault(span.name, []).append(span)
    return index


def _parent_of(spans, span):
    return next((s for s in spans if s.sid == span.parent), None)


class TestLocalSpanTrees:
    def test_thread_strategy_read_chain(self, traced, make_active):
        path = make_active(NULL, data=b"payload")
        with open_active(path, "rb", strategy="thread") as stream:
            assert stream.read(7) == b"payload"
        spans = traced.spans()
        names = _by_name(spans)

        (root,) = names["file"]
        assert root.attrs["strategy"] == "thread"
        (app_read,) = names["app.read"]
        assert _parent_of(spans, app_read) is root
        # thread strategy: a loopback LocalChannel serves the frame in-process.
        frame = next(s for s in names["frame.read"])
        dispatch = next(s for s in names["dispatch.read"])
        assert frame.trace == root.trace == dispatch.trace
        assert _parent_of(spans, dispatch) is frame
        assert names["app.close"], "close must be traced too"

    def test_tracing_off_records_nothing(self, make_active):
        assert not TELEMETRY.tracing
        before = len(TELEMETRY.spans())
        path = make_active(NULL, data=b"x")
        with open_active(path, "rb", strategy="thread") as stream:
            stream.read()
        assert len(TELEMETRY.spans()) == before

    def test_trace_and_telemetry_accessors(self, traced, make_active):
        path = make_active(NULL, data=b"abc")
        with open_active(path, "rb", strategy="thread") as stream:
            stream.read(3)
            tree = stream.trace()
            assert tree["name"] == "file"
            assert any(c["name"] == "app.read" for c in tree["children"])
            view = stream.telemetry()
        assert view["file"]["reads"] == 1
        assert view["trace"]["name"] == "file"
        assert "transport" in view


class TestFaultInjectedRemoteTrace:
    """The acceptance scenario, seeded and deterministic in structure."""

    def _rig(self, tmp_path, **params):
        network = Network()
        server = network.bind(Address("origin", 7000), FileServer())
        server.put_file("data/blob", b"x" * 65536)
        path = str(tmp_path / "remote.af")
        create_active(path, REMOTE,
                      params={"address": "origin:7000", "path": "data/blob",
                              "cache": "memory", "block_size": 4096,
                              "retry_seed": 1, **params},
                      meta={"data": "memory"})
        return network, path

    def test_killed_host_yields_one_linked_span_tree(self, traced, tmp_path):
        network, path = self._rig(tmp_path, readahead=4)
        plane = FaultPlane(seed=7)
        plane.kill_host(after=0, times=1)
        with open_active(path, "rb", strategy="process-control",
                         network=network) as stream:
            plane.arm_host(stream.session.host)
            assert stream.read(16384) == b"x" * 16384
        assert plane.summary().get("send:kill", 0) == 1

        spans = traced.spans()
        names = _by_name(spans)
        (root,) = names["file"]
        # One trace covers everything, both processes included.
        assert {s.trace for s in spans} == {root.trace}
        assert len({s.pid for s in spans}) == 2, \
            "child-process spans must ship back on the reply"

        (app_read,) = names["app.read"]
        attempts = sorted(names["op.read"], key=lambda s: s.start_us)
        assert len(attempts) == 2
        assert [_parent_of(spans, a) for a in attempts] == [app_read] * 2
        assert attempts[0].status == "crashed"
        assert attempts[0].attrs == {"attempt": 1}
        assert attempts[1].attrs == {"attempt": 2, "cause": "retry"}

        (respawn,) = names["respawn"]
        assert respawn.attrs["cause"] == "crash"
        assert _parent_of(spans, respawn) is attempts[0]

        # attempt 2 carries the full cross-process chain down to the
        # origin exchange: frame -> dispatch -> bridge -> net.
        frame2 = next(s for s in names["frame.read"]
                      if _parent_of(spans, s) is attempts[1])
        dispatch2 = next(s for s in names["dispatch.read"]
                         if s.parent == frame2.sid)
        fill = next(s for s in names["cache.fill"]
                    if s.parent == dispatch2.sid)
        assert fill.attrs["cause"] == "demand"
        net_read = next(s for s in names["net.read"])
        bridge = _parent_of(spans, net_read)
        assert bridge.name == "bridge.read"
        assert "origin:7000" in net_read.attrs["address"]

    def test_exported_jsonl_is_one_tree(self, traced, tmp_path):
        network, path = self._rig(tmp_path)
        plane = FaultPlane(seed=5)
        plane.kill_host(after=0, times=1)
        with open_active(path, "rb", strategy="process-control",
                         network=network) as stream:
            plane.arm_host(stream.session.host)
            stream.read(4096)
        out = tmp_path / "trace.jsonl"
        count = traced.export_jsonl(out)
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == count > 0
        traces = {line["trace"] for line in lines}
        assert len(traces) == 1
        sids = {line["sid"] for line in lines}
        roots = [line for line in lines if line["parent"] not in sids]
        assert [r["name"] for r in roots] == ["file"]

    def test_respawn_replays_journal_ops_as_children(self, traced, tmp_path):
        path = str(tmp_path / "journal.af")
        create_active(path, NULL, data=b"0" * 64)
        plane = FaultPlane(seed=11)
        plane.kill_host(after=0, times=1)
        with open_active(path, "r+b", strategy="process-control") as stream:
            stream.write(b"A" * 8)          # journaled mutation
            stream.seek(0)
            plane.arm_host(stream.session.host)
            assert stream.read(8) == b"A" * 8   # crash -> respawn -> replay
        spans = traced.spans()
        names = _by_name(spans)
        (respawn,) = names["respawn"]
        (replay,) = names["journal.replay"]
        assert _parent_of(spans, replay) is respawn
        assert replay.attrs["ops"] == 1
        # the replayed write crossed the wire under the replay span
        replayed_frames = [s for s in names.get("frame.write", [])
                           if s.parent == replay.sid]
        assert replayed_frames, "replayed ops must appear as child frames"


class TestControlOpAliases:
    """Satellite: one canonical control-op name, aliases folded once."""

    def test_alias_table(self):
        assert CONTROL_OP_ALIASES == {"cache_stats": "cache-stats"}
        assert canonical_control_op("cache_stats") == "cache-stats"
        assert canonical_control_op("cache-stats") == "cache-stats"
        assert canonical_control_op("invalidate") == "invalidate"

    @pytest.mark.parametrize("strategy", ["inproc", "thread"])
    @pytest.mark.parametrize("spelling", ["cache-stats", "cache_stats"])
    def test_both_spellings_hit_same_handler(self, tmp_path, strategy,
                                             spelling):
        network = Network()
        server = network.bind(Address("origin", 7000), FileServer())
        server.put_file("data/blob", b"y" * 8192)
        path = str(tmp_path / "remote.af")
        create_active(path, REMOTE,
                      params={"address": "origin:7000", "path": "data/blob",
                              "cache": "memory"},
                      meta={"data": "memory"})
        with open_active(path, "rb", strategy=strategy,
                         network=network) as stream:
            stream.read(4096)
            fields, _ = stream.control(spelling)
        assert fields["cache"] == "memory"
        assert fields["misses"] >= 1
