"""ChannelCounters conservation: racing requests never lose a tally.

Satellite (ISSUE PR 4): under concurrent request traffic the transport
counters must conserve — every request started is eventually settled or
withdrawn, ``in_flight`` drains to zero, and the serving side counts
exactly what arrived.  Plus: the *telemetry view* of the counters
survives a host respawn (the app-side counters are the continuity).
"""

import threading

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import create_active, open_active
from repro.core.channel import LocalChannel
from repro.core.faults import FaultPlane
from repro.core.policy import Deadline
from repro.core.telemetry import TELEMETRY

NULL = "repro.sentinels.null:NullFilterSentinel"


def _echo_pair(name):
    app = peer = LocalChannel(name)
    peer.register(1, lambda fields, payload: ({"ok": True}, payload))
    return app, peer


class TestConservationUnderRaces:
    def test_threaded_tallies_conserve(self):
        app, peer = _echo_pair("counters-race")
        errors = []

        def worker(n):
            try:
                for i in range(50):
                    app.request(1, {"cmd": f"op{n % 4}"}, b"x" * (i % 7))
            except Exception as exc:  # pragma: no cover - fails the test
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors

        sent_side = app.counters.snapshot()
        served_side = peer.counters.snapshot()
        assert sent_side["requests_sent"] == 8 * 50
        # conservation: started == settled + withdrawn (all settled here)
        assert sent_side["replies_received"] \
            + sent_side["requests_failed"] == sent_side["requests_sent"]
        assert sent_side["in_flight"] == 0
        assert served_side["requests_served"] == sent_side["requests_sent"]
        per_op_total = sum(rec["count"]
                           for rec in sent_side["per_op"].values())
        assert per_op_total == sent_side["requests_sent"]
        app.close()
        peer.close()

    def test_withdrawn_requests_count_as_failed(self):
        app = peer = LocalChannel("counters-withdraw")
        gate = threading.Event()
        peer.register(1, lambda fields, payload:
                      (gate.wait(5) and None) or ({"ok": True}, b""))
        try:
            try:
                app.request(1, {"cmd": "slow"}, b"",
                            timeout=Deadline.after(0.05))
            except TimeoutError:
                pass
            gate.set()
            deadline = Deadline.after(2.0)
            while app.counters.snapshot()["in_flight"] and \
                    not deadline.expired():
                pass
            snap = app.counters.snapshot()
            assert snap["requests_failed"] >= 1
            assert snap["replies_received"] + snap["requests_failed"] \
                == snap["requests_sent"]
        finally:
            gate.set()
            app.close()
            peer.close()

    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(["read", "write", "stat"]),
                                  st.integers(0, 64)),
                        min_size=1, max_size=40))
    def test_sequential_op_mix_conserves(self, ops):
        app, peer = _echo_pair("counters-hyp")
        try:
            for op, size in ops:
                app.request(1, {"cmd": op}, b"z" * size)
            snap = app.counters.snapshot()
            assert snap["requests_sent"] == len(ops)
            assert snap["replies_received"] == len(ops)
            assert snap["requests_failed"] == 0
            assert snap["in_flight"] == 0
            assert snap["bytes_sent"] == sum(size for _, size in ops)
            assert peer.counters.snapshot()["requests_served"] == len(ops)
        finally:
            app.close()
            peer.close()


class TestCountersSurviveRespawn:
    def test_telemetry_view_continuous_across_respawn(self, tmp_path):
        path = str(tmp_path / "respawn.af")
        create_active(path, NULL, data=b"s" * 64)
        plane = FaultPlane(seed=3)
        plane.kill_host(after=0, times=1)
        with open_active(path, "rb", strategy="process-control") as stream:
            assert stream.read(8) == b"s" * 8
            pre_crash_reads = stream.stats.reads
            plane.arm_host(stream.session.host)
            assert stream.read(8) == b"s" * 8       # crash + respawn here
            assert stream.session._lease.respawns >= 1
            assert stream.read(8) == b"s" * 8       # and life goes on
            assert stream.stats.reads == pre_crash_reads + 2

            snap = TELEMETRY.snapshot()
            entry = next(s for key, s in snap["files"].items()
                         if key.startswith(path))
            assert entry["reads"] == stream.stats.reads
            # the respawned connection's counters roll into the totals
            assert snap["transport"]["totals"]["requests_sent"] >= 3
            assert snap["transport"]["totals"]["in_flight"] == 0
