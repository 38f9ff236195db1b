"""Exception hierarchy for the active-files reproduction.

Every exception raised by this library derives from :class:`ActiveFileError`
so callers can guard a whole interaction with one ``except`` clause while
still being able to discriminate the failure class.  The hierarchy mirrors
the layers of the system: container/spec problems, strategy/runtime
problems, control-protocol problems, network problems and simulated-OS
problems.
"""

from __future__ import annotations

__all__ = [
    "ActiveFileError",
    "ContainerError",
    "ContainerFormatError",
    "SpecError",
    "SentinelError",
    "SentinelCrashError",
    "SessionCloseError",
    "FlushError",
    "FanoutError",
    "SubscriberEvictedError",
    "DistributionError",
    "AggregationError",
    "StrategyError",
    "UnsupportedOperationError",
    "HandleError",
    "ProtocolError",
    "FrameError",
    "ChannelClosedError",
    "DeadlineExceededError",
    "ShmError",
    "ShmCorruptError",
    "ShmStaleGenerationError",
    "CacheError",
    "InterceptionError",
    "SandboxViolation",
    "NetworkError",
    "AddressError",
    "ServiceError",
    "RemoteFileNotFound",
    "AuthenticationError",
    "NTOSError",
    "DeadlockError",
    "SimulationError",
    "ChaosError",
    "ChaosSafetyError",
    "ScenarioError",
    "DoctorError",
    "DiskFullError",
    "wire_error_registry",
]


class ActiveFileError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


# --------------------------------------------------------------------------
# Container / spec layer
# --------------------------------------------------------------------------

class ContainerError(ActiveFileError):
    """A problem with an ``.af`` container file."""


class ContainerFormatError(ContainerError):
    """The on-disk bytes do not parse as a valid container."""


class SpecError(ActiveFileError):
    """A sentinel spec string or payload is malformed or unresolvable."""


# --------------------------------------------------------------------------
# Runtime layer
# --------------------------------------------------------------------------

class SentinelError(ActiveFileError):
    """The sentinel raised or misbehaved while serving the application."""


class SentinelCrashError(SentinelError):
    """The sentinel process/thread died while the file was open."""


class SessionCloseError(SentinelError):
    """The session's close handshake failed (sentinel gone or wedged)."""


class FlushError(SentinelError):
    """Buffered writes could not be delivered; data did NOT silently
    vanish — this error reports exactly the unflushed state."""


class FanoutError(SentinelError):
    """A pub/sub fan-out operation on the coherence domain failed."""


class SubscriberEvictedError(FanoutError):
    """A slow subscriber's bounded queue overflowed and it was evicted.

    The subscriber must resubscribe (and re-read for a fresh view);
    updates between eviction and resubscription were dropped, not
    silently reordered.
    """


class DistributionError(SentinelError):
    """One or more downstream legs of a distribution fan-out failed.

    Carries the per-target failures so the application can tell *which*
    replicas missed the write instead of a generic sentinel failure.
    """

    def __init__(self, message: str = "",
                 failures: "list[tuple[str, str]] | None" = None) -> None:
        self.failures = list(failures or [])
        if not message and self.failures:
            legs = "; ".join(f"{target}: {cause}"
                             for target, cause in self.failures)
            message = f"{len(self.failures)} distribution leg(s) failed: {legs}"
        super().__init__(message)


class AggregationError(SentinelError):
    """One or more upstream sources of an aggregation could not be read."""

    def __init__(self, message: str = "",
                 failures: "list[tuple[str, str]] | None" = None) -> None:
        self.failures = list(failures or [])
        if not message and self.failures:
            legs = "; ".join(f"{source}: {cause}"
                             for source, cause in self.failures)
            message = f"{len(self.failures)} aggregation source(s) failed: {legs}"
        super().__init__(message)


class StrategyError(ActiveFileError):
    """The requested implementation strategy cannot serve this request."""


class UnsupportedOperationError(StrategyError):
    """Operation has no mapping in this strategy (e.g. seek over bare pipes).

    Mirrors the paper's process-based implementation, where calls such as
    ``ReadFileScatter`` or ``GetFileSize`` "are simply dropped (with an
    appropriate return code)".
    """


class HandleError(ActiveFileError):
    """An operation used a closed, foreign, or otherwise invalid handle."""


class CacheError(ActiveFileError):
    """The caching layer hit an inconsistency."""


class InterceptionError(ActiveFileError):
    """The mediating-connectors analogue could not (un)install itself."""


class SandboxViolation(ActiveFileError):
    """A sandboxed sentinel (or its caller) exceeded the sandbox policy."""


# --------------------------------------------------------------------------
# Control protocol
# --------------------------------------------------------------------------

class ProtocolError(ActiveFileError):
    """A control-channel exchange violated the protocol."""


class FrameError(ProtocolError):
    """A control frame failed to encode or decode."""


class ChannelClosedError(ProtocolError):
    """The peer closed the channel mid-conversation."""


class DeadlineExceededError(ActiveFileError, TimeoutError):
    """A blocking wait outlived its :class:`~repro.core.policy.Deadline`.

    Subclasses :class:`TimeoutError` so callers guarding waits with the
    builtin still catch the typed form.
    """


# --------------------------------------------------------------------------
# Shared-memory data plane
# --------------------------------------------------------------------------

class ShmError(ProtocolError):
    """A shared-memory slot exchange could not be completed.

    The sender falls back to an inline payload when it sees one of
    these, so an shm failure degrades performance, never correctness.
    """


class ShmCorruptError(ShmError):
    """A slot's bytes failed their checksum — the slab was scribbled on."""


class ShmStaleGenerationError(ShmError):
    """A slot descriptor outlived its lease (generation mismatch)."""


# --------------------------------------------------------------------------
# Simulated network
# --------------------------------------------------------------------------

class NetworkError(ActiveFileError):
    """Base class for simulated-network failures."""


class AddressError(NetworkError):
    """No service is bound at the requested address."""


class ServiceError(NetworkError):
    """A remote service rejected or failed a request."""


class RemoteFileNotFound(ServiceError):
    """The remote source has no such file/object."""


class AuthenticationError(ServiceError):
    """The remote source rejected the supplied credentials."""


# --------------------------------------------------------------------------
# Simulated OS
# --------------------------------------------------------------------------

class NTOSError(ActiveFileError):
    """Base class for simulated-kernel failures."""


class DeadlockError(NTOSError):
    """Every simulated thread is blocked and no timer can release one."""


class SimulationError(NTOSError):
    """The simulation harness was misused or reached an impossible state."""


# --------------------------------------------------------------------------
# Chaos engine
# --------------------------------------------------------------------------

class ChaosError(ActiveFileError):
    """Base class for chaos-engine failures (injection and scenarios)."""


class ChaosSafetyError(ChaosError):
    """A blast-radius guard refused an injection.

    Raised *instead of* performing the requested action: signalling a
    pid no live :class:`~repro.core.runner.SentinelHost` owns, exceeding
    the per-fault or total injection-duration caps, or arming an
    unbounded destructive rule outside of tests.
    """


class ScenarioError(ChaosError):
    """A chaos scenario file is malformed or failed validation."""


# --------------------------------------------------------------------------
# Diagnostics engine
# --------------------------------------------------------------------------

class DoctorError(ActiveFileError):
    """The diagnostics engine could not run: a missing or malformed
    evidence bundle, or a declarative check file that failed lint."""


class DiskFullError(ActiveFileError, OSError):
    """The ``disk-full`` resource fault's quota is exhausted.

    Subclasses :class:`OSError` with ``errno`` set to ``ENOSPC`` so
    application code guarding writes with the builtin still catches the
    injected form exactly like a real full disk.
    """

    def __init__(self, message: str = "injected disk-full quota exhausted"
                 ) -> None:
        import errno
        super().__init__(message)
        self.errno = errno.ENOSPC


# --------------------------------------------------------------------------
# Wire round-tripping
# --------------------------------------------------------------------------

def wire_error_registry() -> dict[str, type[Exception]]:
    """Map exception-class name -> class for every public library error.

    The control channel round-trips failures by class name
    (:mod:`repro.core.control`); building the registry from this module's
    ``__all__`` means a sentinel raising *any* library exception
    re-raises as the same type on the application side instead of
    silently degrading to :class:`SentinelError`.
    """
    registry: dict[str, type[Exception]] = {}
    for name in __all__:
        obj = globals().get(name)
        if isinstance(obj, type) and issubclass(obj, BaseException):
            registry[name] = obj
    return registry
