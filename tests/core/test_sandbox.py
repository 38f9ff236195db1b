"""Tests for sentinel sandboxing (§2.3)."""

import pytest

from repro.core import create_active, open_active
from repro.core.policy import Deadline
from repro.core.sandbox import SandboxPolicy, SandboxedSentinel, sandbox_spec
from repro.core.sentinel import SentinelContext
from repro.core.spec import SentinelSpec
from repro.errors import DeadlineExceededError, SandboxViolation, SpecError
from repro.net import (Address, FileServer, Network, Request, Response,
                       Service)

NULL = SentinelSpec("repro.sentinels.null:NullFilterSentinel")


def make_sandboxed(policy: SandboxPolicy, spec: SentinelSpec = NULL,
                   network=None):
    sentinel = sandbox_spec(spec, policy).instantiate()
    ctx = SentinelContext(network=network)
    ctx.data.write_at(0, b"0123456789" * 10)
    sentinel.on_open(ctx)
    return sentinel, ctx


class TestPolicySerialization:
    def test_roundtrip(self):
        policy = SandboxPolicy(max_op_bytes=5, max_total_bytes=100,
                               max_operations=7, allow_writes=False,
                               allow_truncate=False,
                               allowed_control_ops=("stats",),
                               allowed_hosts=("files",))
        assert SandboxPolicy.from_params(policy.to_params()) == policy

    def test_none_collections_roundtrip(self):
        policy = SandboxPolicy()
        restored = SandboxPolicy.from_params(policy.to_params())
        assert restored.allowed_control_ops is None
        assert restored.allowed_hosts is None


class TestIoLimits:
    def test_per_op_limit(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(max_op_bytes=8))
        assert sentinel.on_read(ctx, 0, 8) == b"01234567"
        with pytest.raises(SandboxViolation, match="per-op limit"):
            sentinel.on_read(ctx, 0, 9)

    def test_total_byte_budget(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(max_total_bytes=20))
        sentinel.on_read(ctx, 0, 10)
        sentinel.on_read(ctx, 0, 10)
        with pytest.raises(SandboxViolation, match="I/O budget"):
            sentinel.on_read(ctx, 0, 1)

    def test_operation_budget(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(max_operations=2))
        sentinel.on_read(ctx, 0, 1)
        sentinel.on_read(ctx, 0, 1)
        with pytest.raises(SandboxViolation, match="operation budget"):
            sentinel.on_read(ctx, 0, 1)

    def test_write_denial(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(allow_writes=False))
        assert sentinel.on_read(ctx, 0, 4) == b"0123"
        with pytest.raises(SandboxViolation, match="writes denied"):
            sentinel.on_write(ctx, 0, b"x")

    def test_truncate_denial(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(allow_truncate=False))
        with pytest.raises(SandboxViolation):
            sentinel.on_truncate(ctx, 0)

    def test_writes_count_toward_budget(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(max_total_bytes=10))
        sentinel.on_write(ctx, 0, b"x" * 10)
        with pytest.raises(SandboxViolation):
            sentinel.on_write(ctx, 0, b"y")


class TestControlOps:
    def test_allowlist_enforced(self):
        spec = SentinelSpec("repro.sentinels.logfile:ConcurrentLogSentinel")
        sentinel, ctx = make_sandboxed(
            SandboxPolicy(allowed_control_ops=("stats",)), spec)
        fields, _ = sentinel.on_control(ctx, "stats", {}, b"")
        assert "records" in fields
        with pytest.raises(SandboxViolation, match="denied"):
            sentinel.on_control(ctx, "compact", {"keep": 0}, b"")

    def test_sandbox_stats_always_available(self):
        sentinel, ctx = make_sandboxed(SandboxPolicy(allowed_control_ops=()))
        sentinel.on_read(ctx, 0, 4)
        fields, _ = sentinel.on_control(ctx, "sandbox_stats", {}, b"")
        assert fields["operations"] == 1
        assert fields["total_bytes"] == 4


class TestNetworkGuard:
    def test_allowed_host_passes(self):
        network = Network()
        network.bind(Address("files", 1), FileServer({"f": b"data"}))
        spec = SentinelSpec("repro.sentinels.remotefile:RemoteFileSentinel",
                            {"address": "files:1", "path": "f"})
        sentinel, ctx = make_sandboxed(
            SandboxPolicy(allowed_hosts=("files",)), spec, network=network)
        assert sentinel.on_read(ctx, 0, 4) == b"data"

    def test_forbidden_host_blocked_at_open(self):
        network = Network()
        network.bind(Address("evil", 1), FileServer({"f": b"data"}))
        spec = SentinelSpec("repro.sentinels.remotefile:RemoteFileSentinel",
                            {"address": "evil:1", "path": "f"})
        policy = SandboxPolicy(allowed_hosts=("files",))
        sentinel = sandbox_spec(spec, policy).instantiate()
        ctx = SentinelContext(network=network)
        with pytest.raises(SandboxViolation, match="evil"):
            sentinel.on_open(ctx)

    def test_empty_allowlist_blocks_everything(self):
        network = Network()
        network.bind(Address("files", 1), FileServer({"f": b"d"}))
        spec = SentinelSpec("repro.sentinels.remotefile:RemoteFileSentinel",
                            {"address": "files:1", "path": "f"})
        sentinel = sandbox_spec(spec, SandboxPolicy(allowed_hosts=())) \
            .instantiate()
        with pytest.raises(SandboxViolation):
            sentinel.on_open(SentinelContext(network=network))


class _Counting(Service):
    """Answers ``echo`` with its payload and counts what it served."""

    def __init__(self) -> None:
        self.served = 0

    def op_echo(self, request: Request) -> Response:
        self.served += 1
        return Response(payload=request.payload)


class TestGuardedCallSurface:
    """The sandboxed context's network takes the calls every network
    takes, deadline included, and checks its allowlist on each."""

    @pytest.fixture
    def guarded(self):
        network = Network()
        service = network.bind(Address("files", 1), _Counting())
        network.bind(Address("evil", 1), _Counting())
        _, ctx = make_sandboxed(SandboxPolicy(allowed_hosts=("files",)),
                                network=network)
        return ctx.network, service

    def test_call_with_deadline_reaches_the_service(self, guarded):
        network, service = guarded
        response = network.call(Address("files", 1),
                                Request("echo", payload=b"hi"),
                                deadline=Deadline.after(1))
        assert response.payload == b"hi"
        assert service.served == 1
        resolve = network.call_async(Address("files", 1),
                                     Request("echo", payload=b"yo"),
                                     deadline=Deadline.after(1))
        assert resolve().payload == b"yo"

    def test_expired_deadline_fails_before_the_service(self, guarded):
        network, service = guarded
        with pytest.raises(DeadlineExceededError):
            network.call(Address("files", 1), Request("echo"),
                         deadline=Deadline.after(-1))
        assert service.served == 0

    def test_off_list_host_is_refused_by_every_entry(self, guarded):
        network, _ = guarded
        evil = Address("evil", 1)
        with pytest.raises(SandboxViolation, match="evil"):
            network.connect(evil)
        with pytest.raises(SandboxViolation, match="evil"):
            network.call(evil, Request("echo"))
        with pytest.raises(SandboxViolation, match="evil"):
            network.call_async(evil, Request("echo"))


class TestThroughStrategies:
    """Policy violations surface through every transport as exceptions."""

    @pytest.mark.parametrize("strategy", ["inproc", "thread",
                                          "process-control"])
    def test_violation_round_trips(self, tmp_path, strategy):
        path = tmp_path / "boxed.af"
        create_active(path, sandbox_spec(NULL,
                                         SandboxPolicy(allow_writes=False)),
                      data=b"readable")
        with open_active(str(path), "r+b", strategy=strategy) as stream:
            assert stream.read(8) == b"readable"
            with pytest.raises(SandboxViolation):
                stream.write(b"nope")
            # session survives the violation
            stream.seek(0)
            assert stream.read(4) == b"read"

    def test_sandboxed_file_via_interception(self, tmp_path):
        from repro.core import MediatingConnector

        path = tmp_path / "boxed.af"
        create_active(path, sandbox_spec(NULL, SandboxPolicy(
            max_total_bytes=1 << 16)), data=b"legacy sees me\n")
        with MediatingConnector():
            with open(path) as stream:
                assert stream.read() == "legacy sees me\n"


class TestValidation:
    def test_requires_target(self):
        with pytest.raises(SpecError):
            SandboxedSentinel({"policy": {}})
