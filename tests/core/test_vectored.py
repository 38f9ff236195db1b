"""Vectored (scatter/gather) I/O across the control strategies.

ReadFileScatter/WriteFileGather travel as single ``readv``/``writev``
exchanges on the channel strategies instead of one round trip per
buffer; these tests pin down the semantics on every strategy with a
control channel, so the wire paths (thread, process-control) and the
inline path (inproc) stay interchangeable.
"""

import random

import pytest

from repro.core import Container, open_active
from repro.errors import UnsupportedOperationError
from tests.conftest import CONTROL_STRATEGIES

NULL = "repro.sentinels.null:NullFilterSentinel"


@pytest.mark.parametrize("strategy", CONTROL_STRATEGIES)
class TestScatterGather:
    def test_scatter_read(self, make_active, strategy):
        path = make_active(NULL, data=b"aabbccddee")
        with open_active(path, "rb", strategy=strategy) as stream:
            assert stream.read_scatter([2, 3, 4]) == [b"aa", b"bbc", b"cdde"]
            assert stream.tell() == 9
            assert stream.read() == b"e"

    def test_scatter_read_hits_eof(self, make_active, strategy):
        path = make_active(NULL, data=b"abcdef")
        with open_active(path, "rb", strategy=strategy) as stream:
            # a short extent ends the sequence, like consecutive reads
            assert stream.read_scatter([4, 4, 4]) == [b"abcd", b"ef", b""]
            assert stream.tell() == 6

    def test_gather_write(self, make_active, strategy):
        path = make_active(NULL, data=b"..........")
        with open_active(path, "r+b", strategy=strategy) as stream:
            assert stream.write_gather([b"XX", b"YYY", b"Z"]) == 6
            assert stream.tell() == 6
            stream.seek(0)
            assert stream.read(10) == b"XXYYYZ...."

    def test_gather_write_accepts_views(self, make_active, strategy):
        path = make_active(NULL, data=b"0" * 8)
        with open_active(path, "r+b", strategy=strategy) as stream:
            stream.write_gather([memoryview(b"ab"), bytearray(b"cd")])
            stream.seek(0)
            assert stream.read(4) == b"abcd"

    def test_large_batch_chunks_transparently(self, make_active, strategy):
        body = bytes(range(256)) * 64  # 16 KiB
        path = make_active(NULL, data=body)
        with open_active(path, "rb", strategy=strategy) as stream:
            parts = stream.read_scatter([4096] * 4)
            assert b"".join(parts) == body

        # Every channel session splits exchanges at 4 MiB (READ_CHUNK,
        # WRITE_CHUNK, VECTOR_CHUNK); the split must be invisible.
        mib = 1024 * 1024
        # Aperiodic bytes: a chunk landing at the wrong offset shows.
        body = random.Random(9).randbytes(9 * mib)
        path = make_active(NULL, data=body)
        with open_active(path, "r+b", strategy=strategy) as stream:
            # A scatter batch of 5 MiB spread over many extents.
            sizes = [mib + 1] * 5
            assert stream.read_scatter(sizes) == [
                body[i * (mib + 1):(i + 1) * (mib + 1)] for i in range(5)]
            # One extent larger than a whole batch, between small ones.
            stream.seek(5)
            assert stream.read_scatter([4096, 4 * mib + 7, 100]) == [
                body[5:4101], body[4101:4101 + 4 * mib + 7],
                body[4101 + 4 * mib + 7:4201 + 4 * mib + 7]]
            # A plain read over 4 MiB.
            stream.seek(3)
            assert stream.read(4 * mib + 4096) == body[3:3 + 4 * mib + 4096]

            new = bytes(reversed(body))
            expected = bytearray(body)
            # A gather batch of 5 MiB, then one extent over 4 MiB.
            stream.seek(0)
            parts = [new[i * (mib + 1):(i + 1) * (mib + 1)] for i in range(5)]
            assert stream.write_gather(parts) == 5 * (mib + 1)
            expected[:5 * (mib + 1)] = new[:5 * (mib + 1)]
            stream.seek(mib)
            assert stream.write_gather([new[:4 * mib + 9], b"tail"]) \
                == 4 * mib + 13
            expected[mib:5 * mib + 13] = new[:4 * mib + 9] + b"tail"
            # A plain write over 4 MiB.
            stream.seek(2)
            assert stream.write(new[7:7 + 4 * mib + 3]) == 4 * mib + 3
            expected[2:4 * mib + 5] = new[7:7 + 4 * mib + 3]
            stream.seek(0)
            assert stream.read() == bytes(expected)
        assert Container.load(path).data == bytes(expected)

    def test_vectored_stats_count_per_buffer(self, make_active, strategy):
        path = make_active(NULL, data=b"x" * 12)
        with open_active(path, "r+b", strategy=strategy) as stream:
            stream.read_scatter([4, 4])
            stream.write_gather([b"ab", b"cd"])
            assert stream.stats.reads == 2
            assert stream.stats.writes == 2
            assert stream.stats.bytes_read == 8
            assert stream.stats.bytes_written == 4


class TestNonSeekableRejection:
    def test_scatter_requires_random_access(self, make_active):
        path = make_active(NULL, data=b"abcdef")
        with open_active(path, "rb", strategy="process") as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.read_scatter([2, 2])

    def test_gather_requires_random_access(self, make_active):
        path = make_active(NULL, data=b"abcdef")
        with open_active(path, "r+b", strategy="process") as stream:
            with pytest.raises(UnsupportedOperationError):
                stream.write_gather([b"xy"])

    def test_append_rejected_at_open_without_random_access(self, make_active):
        # Fail before the application writes anything in the belief it
        # is appending; the session is released, not leaked.
        path = make_active(NULL, data=b"log:")
        with pytest.raises(UnsupportedOperationError):
            open_active(path, "ab", strategy="process")


class TestReadinto:
    @pytest.mark.parametrize("strategy", CONTROL_STRATEGIES)
    def test_direct_fill(self, make_active, strategy):
        path = make_active(NULL, data=b"0123456789")
        with open_active(path, "rb", strategy=strategy) as stream:
            buffer = bytearray(4)
            assert stream.readinto(buffer) == 4
            assert bytes(buffer) == b"0123"
            assert stream.readinto(buffer) == 4
            assert bytes(buffer) == b"4567"
            assert stream.readinto(buffer) == 2
            assert bytes(buffer[:2]) == b"89"
