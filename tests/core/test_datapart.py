"""Tests for data parts and cross-open synchronization."""

import threading

import pytest

from repro.core.container import Container
from repro.core.datapart import ContainerDataPart, MemoryDataPart
from repro.core.spec import SentinelSpec
from repro.core.sync import FileLock

SPEC = SentinelSpec("repro.sentinels.null:NullFilterSentinel")


class TestMemoryDataPart:
    def test_basic_io(self):
        part = MemoryDataPart(b"abc")
        assert part.read_at(0, 3) == b"abc"
        part.write_at(3, b"def")
        assert part.size == 6
        assert part.getvalue() == b"abcdef"

    def test_flush_is_noop(self):
        part = MemoryDataPart(b"x")
        part.flush()
        part.close()
        assert part.getvalue() == b"x"

    def test_truncate_and_setvalue(self):
        part = MemoryDataPart(b"abcdef")
        part.truncate(2)
        assert part.getvalue() == b"ab"
        part.setvalue(b"zz")
        assert part.getvalue() == b"zz"


class TestContainerDataPart:
    @pytest.fixture
    def container(self, tmp_path):
        return Container.create(tmp_path / "f.af", SPEC, data=b"initial")

    def test_loads_segment(self, container):
        part = ContainerDataPart(container)
        assert part.read_at(0, 7) == b"initial"

    def test_dirty_flush_persists(self, container):
        part = ContainerDataPart(container)
        part.write_at(0, b"INITIAL")
        # not yet on disk
        assert Container.load(container.path).data == b"initial"
        part.flush()
        assert Container.load(container.path).data == b"INITIAL"

    def test_clean_flush_does_not_rewrite(self, container):
        part = ContainerDataPart(container)
        mtime = container.path.stat().st_mtime_ns
        part.flush()
        assert container.path.stat().st_mtime_ns == mtime

    def test_close_flushes(self, container):
        part = ContainerDataPart(container)
        part.write_at(0, b"X")
        part.close()
        assert Container.load(container.path).data == b"Xnitial"

    def test_truncate_marks_dirty(self, container):
        part = ContainerDataPart(container)
        part.truncate(3)
        part.flush()
        assert Container.load(container.path).data == b"ini"

    def test_reload_sees_external_writes(self, container):
        part = ContainerDataPart(container)
        Container.load(container.path).write_data(b"external")
        part.reload()
        assert part.getvalue() == b"external"

    def test_reload_discards_local_dirty_state(self, container):
        part = ContainerDataPart(container)
        part.write_at(0, b"LOCAL")
        part.reload()
        assert part.getvalue() == b"initial"
        part.flush()  # reload cleared dirty; nothing written
        assert Container.load(container.path).data == b"initial"


class TestFileLock:
    def test_reentrant_within_thread(self, tmp_path):
        lock = FileLock(tmp_path / "t")
        with lock:
            with lock:
                pass
        lock.close()

    def test_mutual_exclusion_across_threads(self, tmp_path):
        results = []
        barrier = threading.Barrier(2)

        def worker(tag):
            lock = FileLock(tmp_path / "t")  # separate fd per thread
            barrier.wait()
            with lock:
                results.append(("enter", tag))
                results.append(("exit", tag))
            lock.close()

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # entries and exits strictly alternate: no interleaving
        assert [kind for kind, _ in results] == ["enter", "exit", "enter", "exit"]

    def test_lock_sidecar_path(self, tmp_path):
        lock = FileLock(tmp_path / "file.af")
        with lock:
            assert (tmp_path / "file.af.lock").exists()
        lock.close()

