"""Coherence-plane equivalence: lease-coherent concurrent opens of one
remote file are indistinguishable from a single plain file.

The hypothesis property drives interleaved writes/publishes/reads
through three process-strategy opens (all members of one coherence
domain in the pooled host child) against a plain ``bytearray`` model.
The remaining tests pin the plane's failure semantics over
the wire: slow-consumer eviction and the typed distribution/aggregation
fan-out errors."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import create_active, open_active
from repro.errors import (
    AggregationError,
    DistributionError,
    SubscriberEvictedError,
)
from repro.net import Address, FileServer, Network

REMOTE = "repro.sentinels.remotefile:RemoteFileSentinel"

SIZE = 512
OPENS = 3

_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, OPENS - 1),
              st.integers(0, SIZE - 1), st.binary(min_size=1, max_size=96)),
    st.tuples(st.just("publish"), st.integers(0, OPENS - 1),
              st.integers(0, SIZE - 1), st.binary(min_size=1, max_size=96)),
    st.tuples(st.just("read"), st.integers(0, OPENS - 1),
              st.integers(0, SIZE - 1), st.integers(1, 128)),
    st.tuples(st.just("size"), st.integers(0, OPENS - 1), st.just(0),
              st.just(0)),
)


def _coherent_rig(tmp_path, name="blob.af", **params):
    network = Network()
    server = network.bind(Address("files.chaos", 7000), FileServer())
    base = bytes(range(256)) * (SIZE // 256)
    server.put_file("data/blob.bin", base)
    path = tmp_path / name
    create_active(path, REMOTE,
                  params={"address": "files.chaos:7000",
                          "path": "data/blob.bin", "cache": "memory",
                          "coherent": True, "block_size": 64, **params},
                  meta={"data": "memory"})
    return network, server, str(path), base


class TestCoherentOpensEquivalentToPlainFile:
    def test_interleaved_ops_match_bytearray_model(self, tmp_path):
        network, server, path, base = _coherent_rig(tmp_path)
        streams = [open_active(path, "r+b", strategy="process-control",
                               network=network) for _ in range(OPENS)]
        try:
            @settings(max_examples=15, deadline=None)
            @given(ops=st.lists(_op, max_size=10))
            def run(ops):
                streams[0].truncate(SIZE)
                streams[0].seek(0)
                streams[0].write(base)
                model = bytearray(base)
                for kind, who, offset, arg in ops:
                    stream = streams[who]
                    if kind == "write":
                        stream.seek(offset)
                        assert stream.write(arg) == len(arg)
                        model[offset:offset + len(arg)] = arg
                    elif kind == "publish":
                        stream.publish(arg, offset=offset)
                        model[offset:offset + len(arg)] = arg
                    elif kind == "read":
                        stream.seek(offset)
                        assert stream.read(arg) == \
                            bytes(model[offset:offset + arg])
                    elif kind == "size":
                        assert stream.getsize() == len(model)
                for stream in streams:
                    stream.seek(0)
                    assert stream.read() == bytes(model)

            run()
        finally:
            for stream in streams:
                stream.close()

    def test_leased_reads_cost_zero_origin_trips(self, tmp_path):
        network, _, path, base = _coherent_rig(tmp_path)
        a = open_active(path, "r+b", strategy="process-control",
                        network=network)
        b = open_active(path, "rb", strategy="process-control",
                        network=network)
        try:
            assert b.read() == base  # populate the cache under the lease
            before = network.stats.requests
            for _ in range(10):
                b.seek(0)
                assert b.read() == base
            assert network.stats.requests == before
            # a peer write push-installs: still zero origin reads after
            a.seek(0)
            a.write(b"UPDATE!!")
            origin_trips = network.stats.requests
            b.seek(0)
            assert b.read() == b"UPDATE!!" + base[8:]
            assert network.stats.requests == origin_trips
        finally:
            a.close()
            b.close()


class TestEvictionOverTheWire:
    def test_slow_consumer_raises_typed_error_through_session(self, tmp_path):
        network, _, path, _ = _coherent_rig(tmp_path)
        writer = open_active(path, "r+b", strategy="process-control",
                             network=network)
        reader = open_active(path, "rb", strategy="process-control",
                             network=network)
        try:
            sub = reader.subscribe(max_pending=1)
            writer.write(b"a")
            writer.write(b"b")  # overflows the bound: subscriber evicted
            with pytest.raises(SubscriberEvictedError):
                reader.poll(sub)
            fresh = reader.subscribe()
            writer.write(b"c")
            assert len(reader.poll(fresh)) == 1
        finally:
            writer.close()
            reader.close()


class TestFanoutWireErrors:
    def test_distribution_error_names_every_failed_leg(self, tmp_path,
                                                       network):
        network.bind(Address("sink.ok", 7000), FileServer())
        path = tmp_path / "tee.af"
        create_active(path, "repro.sentinels.distribute:DistributionSentinel",
                      params={"targets": [
                          {"kind": "fileserver", "address": "sink.ok:7000",
                           "path": "log"},
                          {"kind": "fileserver", "address": "gone.a:7000",
                           "path": "log"},
                          {"kind": "kv", "address": "gone.b:7000",
                           "key": "k"},
                      ]})
        with open_active(path, "r+b", strategy="process-control",
                         network=network) as stream:
            with pytest.raises(DistributionError) as excinfo:
                stream.write(b"payload")
            message = str(excinfo.value)
            assert "2 distribution leg(s) failed" in message
            assert "gone.a" in message and "gone.b" in message
            assert "sink.ok" not in message

    def test_aggregation_error_names_every_failed_source(self, tmp_path,
                                                         network):
        network.bind(Address("src.ok", 7000),
                     FileServer({"part": b"alive"}))
        path = tmp_path / "agg.af"
        create_active(path, "repro.sentinels.aggregate:AggregateSentinel",
                      params={"sources": [
                          {"kind": "fileserver", "address": "src.ok:7000",
                           "path": "part"},
                          {"kind": "fileserver", "address": "gone.src:7000",
                           "path": "part"},
                      ]})
        with pytest.raises(AggregationError) as excinfo:
            open_active(path, "rb", strategy="process-control",
                        network=network)
        message = str(excinfo.value)
        assert "1 aggregation source(s) failed" in message
        assert "gone.src" in message
