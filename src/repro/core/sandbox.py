"""Sandboxing untrusted sentinels (paper §2.3).

"Opening an active file ... launches a program under the user-id of the
application that opened the file.  This program can, of course have any
side effect, including malicious ones ... In applications with
additional security requirements, orthogonal techniques such as
certificates, code signing, and sandboxing can be used."

:class:`SandboxedSentinel` is that orthogonal technique for this
runtime: it wraps any sentinel behind a :class:`SandboxPolicy` that the
*opener* (not the sentinel author) controls:

* cap per-operation and total I/O volume;
* deny writes / control ops / truncation outright;
* restrict which network hosts the sentinel may contact (the context's
  network is interposed: ``connect``, ``call`` and ``call_async``);
* bound how many operations the sentinel may serve per open.

Violations raise :class:`~repro.errors.SandboxViolation`, which the
strategies surface to the application like any sentinel failure — one
bad operation cannot take the session down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.sentinel import Sentinel, SentinelContext
from repro.core.spec import SentinelSpec
from repro.errors import SandboxViolation, SpecError
from repro.net.address import Address

__all__ = ["SandboxPolicy", "SandboxViolation", "SandboxedSentinel",
           "sandbox_spec"]


@dataclass(frozen=True)
class SandboxPolicy:
    """Resource-centric limits applied around one sentinel."""

    #: Largest single read/write the sandbox will pass through.
    max_op_bytes: int = 1 << 20
    #: Total bytes (reads + writes) allowed per open; None = unlimited.
    max_total_bytes: int | None = None
    #: Total operations allowed per open; None = unlimited.
    max_operations: int | None = None
    allow_writes: bool = True
    allow_truncate: bool = True
    #: Control ops the application may invoke; None = all, () = none.
    allowed_control_ops: tuple[str, ...] | None = None
    #: Network hosts the sentinel may connect to; None = all, () = none.
    allowed_hosts: tuple[str, ...] | None = None

    def to_params(self) -> dict[str, Any]:
        return {
            "max_op_bytes": self.max_op_bytes,
            "max_total_bytes": self.max_total_bytes,
            "max_operations": self.max_operations,
            "allow_writes": self.allow_writes,
            "allow_truncate": self.allow_truncate,
            "allowed_control_ops": (None if self.allowed_control_ops is None
                                    else list(self.allowed_control_ops)),
            "allowed_hosts": (None if self.allowed_hosts is None
                              else list(self.allowed_hosts)),
        }

    @classmethod
    def from_params(cls, params: dict[str, Any]) -> "SandboxPolicy":
        ops = params.get("allowed_control_ops")
        hosts = params.get("allowed_hosts")
        return cls(
            max_op_bytes=int(params.get("max_op_bytes", 1 << 20)),
            max_total_bytes=params.get("max_total_bytes"),
            max_operations=params.get("max_operations"),
            allow_writes=bool(params.get("allow_writes", True)),
            allow_truncate=bool(params.get("allow_truncate", True)),
            allowed_control_ops=None if ops is None else tuple(ops),
            allowed_hosts=None if hosts is None else tuple(hosts),
        )


def sandbox_spec(spec: SentinelSpec, policy: SandboxPolicy) -> SentinelSpec:
    """Wrap *spec* so it always runs under *policy*."""
    return SentinelSpec(
        target="repro.core.sandbox:SandboxedSentinel",
        params={"target": spec.target, "params": dict(spec.params),
                "policy": policy.to_params()},
    )


class _GuardedNetwork:
    """Network facade that enforces the host allowlist on ``connect``,
    ``call`` and ``call_async``, the surface of every network."""

    def __init__(self, network, policy: SandboxPolicy) -> None:
        self._network = network
        self._policy = policy

    def _allowed(self, address: Address):
        """The wrapped network, once *address*'s host passes the policy."""
        allowed = self._policy.allowed_hosts
        if allowed is not None and address.host not in allowed:
            raise SandboxViolation(
                f"sentinel tried to contact {address.host!r}, which the "
                f"sandbox policy does not allow"
            )
        return self._network

    def connect(self, address: Address):
        return self._allowed(address).connect(address)

    def call(self, address: Address, request, *, deadline=None):
        return self._allowed(address).call(address, request,
                                           deadline=deadline)

    def call_async(self, address: Address, request, *, deadline=None):
        return self._allowed(address).call_async(address, request,
                                                 deadline=deadline)


class SandboxedSentinel(Sentinel):
    """Policy-enforcing wrapper around another sentinel.

    Params: ``target``/``params`` (the wrapped sentinel) and ``policy``
    (a :meth:`SandboxPolicy.to_params` dict).
    """

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        super().__init__(params)
        target = self.params.get("target")
        if not target:
            raise SpecError("sandbox requires a 'target' param")
        self.inner = SentinelSpec(
            target=target, params=self.params.get("params") or {}
        ).instantiate()
        self.policy = SandboxPolicy.from_params(self.params.get("policy") or {})
        self.operations = 0
        self.total_bytes = 0

    # -- accounting ----------------------------------------------------------------

    def _account(self, nbytes: int, kind: str) -> None:
        self.operations += 1
        if self.policy.max_operations is not None \
                and self.operations > self.policy.max_operations:
            raise SandboxViolation(
                f"operation budget exhausted "
                f"({self.policy.max_operations} per open)"
            )
        if nbytes > self.policy.max_op_bytes:
            raise SandboxViolation(
                f"{kind} of {nbytes} bytes exceeds the per-op limit "
                f"({self.policy.max_op_bytes})"
            )
        self.total_bytes += nbytes
        if self.policy.max_total_bytes is not None \
                and self.total_bytes > self.policy.max_total_bytes:
            raise SandboxViolation(
                f"I/O budget exhausted ({self.policy.max_total_bytes} bytes "
                "per open)"
            )

    def _guarded(self, ctx: SentinelContext) -> SentinelContext:
        if ctx.network is None or isinstance(ctx.network, _GuardedNetwork):
            return ctx
        ctx.network = _GuardedNetwork(ctx.network, self.policy)
        return ctx

    # -- sentinel interface -----------------------------------------------------------

    def on_open(self, ctx: SentinelContext) -> None:
        self.inner.on_open(self._guarded(ctx))

    def on_close(self, ctx: SentinelContext) -> None:
        self.inner.on_close(ctx)

    def on_read(self, ctx: SentinelContext, offset: int, size: int) -> bytes:
        self._account(size, "read")
        return self.inner.on_read(ctx, offset, size)

    def on_write(self, ctx: SentinelContext, offset: int, data: bytes) -> int:
        if not self.policy.allow_writes:
            raise SandboxViolation("writes denied by sandbox policy")
        self._account(len(data), "write")
        return self.inner.on_write(ctx, offset, data)

    def on_size(self, ctx: SentinelContext) -> int:
        return self.inner.on_size(ctx)

    def on_truncate(self, ctx: SentinelContext, size: int) -> None:
        if not self.policy.allow_truncate or not self.policy.allow_writes:
            raise SandboxViolation("truncate denied by sandbox policy")
        self.inner.on_truncate(ctx, size)

    def on_flush(self, ctx: SentinelContext) -> None:
        self.inner.on_flush(ctx)

    def on_control(self, ctx: SentinelContext, op: str, args: dict[str, Any],
                   payload: bytes) -> tuple[dict[str, Any], bytes]:
        if op == "sandbox_stats":
            return {"operations": self.operations,
                    "total_bytes": self.total_bytes,
                    "policy": self.policy.to_params()}, b""
        allowed = self.policy.allowed_control_ops
        if allowed is not None and op not in allowed:
            raise SandboxViolation(
                f"control op {op!r} denied by sandbox policy"
            )
        return self.inner.on_control(ctx, op, args, payload)
