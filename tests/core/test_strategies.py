"""Cross-strategy behaviour tests.

The paper's central transparency claim is that every strategy presents
the same file semantics; these tests drive identical operation
sequences through all four §4 strategies and assert identical outcomes,
plus the documented capability differences of the simple process
strategy.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Container, create_active, open_active
from repro.errors import (
    SentinelCrashError,
    StrategyError,
    UnsupportedOperationError,
)
from tests.conftest import ALL_STRATEGIES, CONTROL_STRATEGIES, FAST_STRATEGIES

NULL = "repro.sentinels.null:NullFilterSentinel"


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
class TestSequentialEquivalence:
    """Sequential read of the data part behaves identically everywhere."""

    def test_full_read(self, make_active, strategy):
        path = make_active(NULL, data=b"the quick brown fox")
        with open_active(path, "rb", strategy=strategy) as stream:
            assert stream.read() == b"the quick brown fox"

    def test_chunked_read(self, make_active, strategy):
        path = make_active(NULL, data=b"0123456789")
        with open_active(path, "rb", strategy=strategy) as stream:
            assert stream.read(3) == b"012"
            assert stream.read(3) == b"345"
            assert stream.read(100) == b"6789"
            assert stream.read(5) == b""

    def test_empty_file(self, make_active, strategy):
        path = make_active(NULL)
        with open_active(path, "rb", strategy=strategy) as stream:
            assert stream.read() == b""


@pytest.mark.parametrize("strategy", CONTROL_STRATEGIES)
class TestRandomAccess:
    def test_seek_and_read(self, make_active, strategy):
        path = make_active(NULL, data=b"0123456789")
        with open_active(path, "rb", strategy=strategy) as stream:
            stream.seek(4)
            assert stream.read(3) == b"456"
            stream.seek(-2, 2)
            assert stream.read() == b"89"
            stream.seek(1, 0)
            stream.seek(2, 1)
            assert stream.tell() == 3

    def test_write_persists_to_container(self, make_active, strategy):
        path = make_active(NULL, data=b"aaaa")
        with open_active(path, "r+b", strategy=strategy) as stream:
            stream.seek(2)
            assert stream.write(b"ZZ") == 2
        assert Container.load(path).data == b"aaZZ"

    def test_getsize_tracks_writes(self, make_active, strategy):
        path = make_active(NULL, data=b"ab")
        with open_active(path, "r+b", strategy=strategy) as stream:
            assert stream.getsize() == 2
            stream.seek(0, 2)
            stream.write(b"cdef")
            assert stream.getsize() == 6

    def test_truncate(self, make_active, strategy):
        path = make_active(NULL, data=b"0123456789")
        with open_active(path, "r+b", strategy=strategy) as stream:
            stream.truncate(4)
            stream.seek(0)
            assert stream.read() == b"0123"

    def test_w_mode_truncates_at_open(self, make_active, strategy):
        path = make_active(NULL, data=b"previous")
        with open_active(path, "wb", strategy=strategy) as stream:
            stream.write(b"new")
        assert Container.load(path).data == b"new"

    def test_append_mode(self, make_active, strategy):
        path = make_active(NULL, data=b"log:")
        with open_active(path, "ab", strategy=strategy) as stream:
            assert stream.tell() == 4
            stream.write(b"entry")
        assert Container.load(path).data == b"log:entry"

    def test_write_past_end_zero_fills(self, make_active, strategy):
        path = make_active(NULL, data=b"ab")
        with open_active(path, "r+b", strategy=strategy) as stream:
            stream.seek(5)
            stream.write(b"z")
            stream.seek(0)
            assert stream.read() == b"ab\x00\x00\x00z"

    def test_custom_control_roundtrip(self, make_active, strategy, tmp_path):
        path = make_active(
            "repro.sentinels.logfile:ConcurrentLogSentinel", data=b""
        )
        with open_active(path, "r+b", strategy=strategy) as stream:
            stream.write(b"hello\n")
            fields, _ = stream.control("stats")
            assert fields["records"] == 1

    def test_unsupported_control_op_raises(self, make_active, strategy):
        path = make_active(NULL)
        with open_active(path, "rb", strategy=strategy) as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.control("no_such_op")


class TestProcessStrategyLimits:
    """§4.1: bare pipes support only sequential read/write."""

    def test_seek_raises(self, make_active):
        path = make_active(NULL, data=b"abc")
        with open_active(path, "rb", strategy="process") as stream:
            assert not stream.seekable()
            with pytest.raises(UnsupportedOperationError):
                stream.seek(1)

    def test_getsize_raises(self, make_active):
        path = make_active(NULL, data=b"abc")
        with open_active(path, "rb", strategy="process") as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.getsize()

    def test_control_raises(self, make_active):
        path = make_active(NULL, data=b"abc")
        with open_active(path, "rb", strategy="process") as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.control("anything")

    @pytest.mark.parametrize("call", [
        lambda session: session.publish(0, b"x"),
        lambda session: session.subscribe(),
        lambda session: session.poll(1),
        lambda session: session.unsubscribe(1),
    ], ids=["publish", "subscribe", "poll", "unsubscribe"])
    def test_fanout_rejected_without_a_round_trip(self, make_active, call):
        path = make_active(NULL, data=b"abc")
        with open_active(path, "rb", strategy="process") as stream:
            counters = stream.session.counters
            sent = counters.requests_sent
            with pytest.raises(UnsupportedOperationError):
                call(stream.session)
            assert counters.requests_sent == sent

    def test_w_mode_rejected(self, make_active):
        path = make_active(NULL, data=b"abc")
        with pytest.raises(StrategyError):
            open_active(path, "wb", strategy="process")

    def test_sequential_write_reaches_container(self, make_active):
        path = make_active(NULL, data=b"")
        with open_active(path, "r+b", strategy="process") as stream:
            stream.write(b"streamed bytes")
        assert Container.load(path).data == b"streamed bytes"


class TestStrategyAliases:
    def test_paper_aliases_resolve(self, make_active):
        path = make_active(NULL, data=b"x")
        for alias in ("dll", "dll-only", "dll-with-thread",
                      "process-plus-control"):
            with open_active(path, "rb", strategy=alias) as stream:
                assert stream.read() == b"x"

    def test_unknown_strategy(self, make_active):
        path = make_active(NULL)
        with pytest.raises(StrategyError, match="unknown strategy"):
            open_active(path, "rb", strategy="carrier-pigeon")


class TestGeneratorAcrossStrategies:
    """Endless generated files behave identically on every strategy."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_random_bytes_deterministic(self, make_active, strategy):
        path = make_active("repro.sentinels.generate:RandomBytesSentinel",
                           params={"seed": 42}, meta={"data": "memory"})
        with open_active(path, "rb", strategy=strategy) as stream:
            first = stream.read(64)
        assert len(first) == 64
        with open_active(path, "rb", strategy="inproc") as stream:
            assert stream.read(64) == first

    @pytest.mark.parametrize("strategy", FAST_STRATEGIES)
    def test_counter_lines(self, make_active, strategy):
        path = make_active("repro.sentinels.generate:CounterSentinel",
                           params={"width": 4, "count": 3},
                           meta={"data": "memory"})
        with open_active(path, "rb", strategy=strategy) as stream:
            assert stream.read() == b"0000\n0001\n0002\n"


class TestMultipleOpens:
    """§2.2: multiple opens create multiple sentinels."""

    @pytest.mark.parametrize("strategy", FAST_STRATEGIES)
    def test_two_concurrent_opens(self, make_active, strategy):
        path = make_active(NULL, data=b"shared")
        a = open_active(path, "rb", strategy=strategy)
        b = open_active(path, "rb", strategy=strategy)
        try:
            assert a.read(3) == b"sha"
            assert b.read(6) == b"shared"
            assert a.read() == b"red"
        finally:
            a.close()
            b.close()

    def test_mixed_strategy_opens(self, make_active):
        path = make_active(NULL, data=b"shared")
        with open_active(path, "rb", strategy="inproc") as a, \
                open_active(path, "rb", strategy="thread") as b:
            assert a.read() == b.read() == b"shared"


class TestFailureInjection:
    def test_sentinel_crash_on_open_process_control(self, make_active):
        path = make_active("no.such.module:Sentinel")
        stream = None
        with pytest.raises((SentinelCrashError, Exception)):
            stream = open_active(path, "rb", strategy="process-control")
            stream.read(1)
        if stream is not None:
            with pytest.raises(SentinelCrashError):
                stream.close()

    def test_sentinel_crash_on_open_inproc(self, make_active):
        from repro.errors import SpecError

        path = make_active("no.such.module:Sentinel")
        with pytest.raises(SpecError):
            open_active(path, "rb", strategy="inproc")

    def test_operations_after_close_rejected(self, make_active):
        path = make_active(NULL, data=b"x")
        stream = open_active(path, "rb", strategy="inproc")
        stream.close()
        with pytest.raises(ValueError):
            stream.read(1)
        stream.close()  # double close is fine

    @pytest.mark.parametrize("strategy", FAST_STRATEGIES)
    def test_read_only_mode_blocks_writes(self, make_active, strategy):
        path = make_active(NULL, data=b"x")
        with open_active(path, "rb", strategy=strategy) as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.write(b"y")

    def test_write_only_mode_blocks_reads(self, make_active):
        path = make_active(NULL, data=b"x")
        with open_active(path, "ab", strategy="inproc") as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.read(1)


class TestPropertyEquivalence:
    """Property: any op sequence matches a reference buffer (null filter)."""

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.integers(0, 64), st.integers(0, 64)),
            st.tuples(st.just("write"), st.integers(0, 64),
                      st.binary(min_size=1, max_size=32)),
        ),
        max_size=12,
    ), strategy=st.sampled_from(FAST_STRATEGIES))
    def test_matches_reference(self, tmp_path, ops, strategy):
        from repro.util.bytesbuf import ByteBuffer

        path = tmp_path / f"prop-{abs(hash(str(ops))) % 10**8}.af"
        if not path.exists():
            create_active(path, NULL, data=b"seed data!")
        reference = ByteBuffer(Container.load(path).data)
        with open_active(str(path), "r+b", strategy=strategy) as stream:
            for op in ops:
                if op[0] == "read":
                    _, offset, size = op
                    stream.seek(offset)
                    assert stream.read(size) == reference.read_at(offset, size)
                else:
                    _, offset, data = op
                    stream.seek(offset)
                    stream.write(data)
                    reference.write_at(offset, data)
        assert Container.load(path).data == reference.getvalue()


class TestCrossStrategyEquivalenceIncludingProcess:
    """The same random op script yields identical results under the
    in-process strategies and the real child-process strategy."""

    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ops=st.lists(
        st.one_of(
            st.tuples(st.just("read"), st.integers(0, 48), st.integers(0, 48)),
            st.tuples(st.just("write"), st.integers(0, 48),
                      st.binary(min_size=1, max_size=24)),
        ),
        min_size=1, max_size=6,
    ))
    def test_process_control_matches_inproc(self, tmp_path, ops):
        def run(strategy, path):
            create_active(path, NULL, data=b"common seed", exist_ok=True)
            outputs = []
            with open_active(str(path), "r+b", strategy=strategy) as stream:
                for op in ops:
                    if op[0] == "read":
                        _, offset, size = op
                        stream.seek(offset)
                        outputs.append(stream.read(size))
                    else:
                        _, offset, data = op
                        stream.seek(offset)
                        stream.write(data)
                stream.seek(0)
                outputs.append(stream.read())
            return outputs, Container.load(path).data

        key = abs(hash(str(ops))) % 10**8
        result_a = run("inproc", tmp_path / f"a{key}.af")
        result_b = run("process-control", tmp_path / f"b{key}.af")
        assert result_a == result_b
