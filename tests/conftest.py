"""Shared fixtures for the test suite."""

import pytest

from repro.core import create_active, runner
from repro.core.runner import SentinelHostPool
from repro.core.strategies.process_control import ProcessControlSession
from repro.net import Address, FileServer, Network

#: All four §4 strategies; process ones spawn a real child interpreter.
ALL_STRATEGIES = ("inproc", "thread", "process-control", "process")

#: Strategies with a control channel (full file API).
CONTROL_STRATEGIES = ("inproc", "thread", "process-control")

#: Fast strategies for tests where the transport doesn't matter.
FAST_STRATEGIES = ("inproc", "thread")


def pytest_addoption(parser):
    parser.addoption(
        "--no-shm", action="store_true",
        help="run as on a machine without /dev/shm: every sentinel host's "
             "shared-memory plane fails to come up and payloads ride inline")


def no_shm_plane(*args, **kwargs):
    """Stand-in for ``runner.ShmPlane`` on a machine without /dev/shm."""
    raise OSError("shared memory is unavailable")


@pytest.fixture(scope="session", autouse=True)
def _shm_plane_availability(request):
    """Under ``--no-shm`` every host spawned in the session runs inline."""
    if not request.config.getoption("--no-shm"):
        yield
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "ShmPlane", no_shm_plane)
        yield


def open_dedicated_session(container) -> ProcessControlSession:
    """A process-control session on a host of its own.

    The lease comes from a private pool that keeps no idle host, so the
    host is spawned for this open (with whatever the test has patched)
    and retires when the session closes.
    """
    lease = SentinelHostPool(linger=0).lease(
        str(container.path), strategy="process-control")
    lease.supervised = bool(container.meta.get("supervise", True))
    return ProcessControlSession(lease)


@pytest.fixture
def network():
    return Network()


@pytest.fixture
def fileserver(network):
    address = Address("files.test", 7000)
    server = network.bind(address, FileServer())
    server.test_address = address
    return server


@pytest.fixture
def make_active(tmp_path):
    """Factory for active files in a temp directory."""
    counter = [0]

    def factory(target, params=None, data=b"", meta=None, name=None):
        counter[0] += 1
        path = tmp_path / (name or f"file{counter[0]}.af")
        create_active(path, target, params=params, data=data, meta=meta)
        return str(path)

    return factory
