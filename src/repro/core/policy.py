"""Deadlines and retry policies for the fault-tolerant transport.

Failures are routine in the environment the paper targets — sentinels
wrap *remote* information sources, and the sentinel process itself can
die under the application.  This module centralizes the two primitives
every layer of the stack uses to survive that:

* :class:`Deadline` — an absolute point on the monotonic clock by which
  an operation must finish.  Every blocking wait in the transport takes
  one; the remaining budget travels across process boundaries as a
  millisecond field (``dl``) in the message envelope, so a sentinel
  child and the network bridge inherit the caller's budget instead of
  inventing their own.
* :class:`RetryPolicy` — bounded exponential backoff with seeded jitter.
  Retries are *idempotency-aware*: callers declare which failures are
  retryable, and the policy never sleeps past the deadline.

Every timeout constant of the transport lives here — the single place
to tune, and the single place a grep for hardcoded timeout literals
should point at.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Iterator

from repro.errors import DeadlineExceededError

__all__ = [
    "Deadline",
    "RetryPolicy",
    "DEFAULT_OP_TIMEOUT",
    "ATTEMPT_TIMEOUT",
    "OPEN_TIMEOUT",
    "CLOSE_TIMEOUT",
    "JOIN_TIMEOUT",
    "SHUTDOWN_TIMEOUT",
    "HEARTBEAT_IDLE_S",
    "HEARTBEAT_TIMEOUT",
    "HOST_LINGER_S",
    "JOURNAL_LIMIT_BYTES",
    "SCHED_TICK_S",
    "READ_POLL_S",
    "LEAD_GRACE_S",
    "HOST_EXECUTOR_THREADS",
    "HOST_INTAKE_HIGH",
    "HOST_INTAKE_LOW",
    "BRIDGED_PIPE_BYTES",
    "CHAOS_MAX_FAULT_S",
    "CHAOS_MAX_TOTAL_INJECTION_S",
    "CHAOS_OP_TIMEOUT",
    "CHAOS_RETRY_S",
    "CHAOS_RECOVERS_DEFAULT_S",
    "CHAOS_WORKLOAD_TIMEOUT",
]

# ---------------------------------------------------------------------------
# Timeout constants (the only place in the library timeouts are spelled)
# ---------------------------------------------------------------------------

#: One operation's budget when its caller sent none: a session op (app
#: <-> sentinel), a network-bridge exchange (child -> app -> net), or a
#: caching sentinel's remote-origin exchange.
DEFAULT_OP_TIMEOUT = 30.0

#: Per-wire-attempt cap inside an operation's budget: a lost frame is
#: detected after this long and the request is re-sent (idempotent ops).
ATTEMPT_TIMEOUT = 5.0

#: Budget for opening a session on a sentinel host (includes spawn).
OPEN_TIMEOUT = 30.0

#: Budget for the close handshake before teardown proceeds anyway.
CLOSE_TIMEOUT = 5.0

#: Bound on a stream channel's teardown waiting for an in-flight
#: sender's write lock before it closes the write end anyway.
JOIN_TIMEOUT = 5.0

#: Bound on waiting for a host child to exit after its channel closed.
SHUTDOWN_TIMEOUT = 5.0

#: A host connection idle this long gets a liveness probe.
HEARTBEAT_IDLE_S = 5.0

#: Budget for one heartbeat ping before the host is declared dead.
HEARTBEAT_TIMEOUT = 5.0

#: How long an idle pooled host survives after its last lease closes.
HOST_LINGER_S = 0.5

#: Write-journal size bound; a session whose mutation history exceeds
#: this cannot be transparently respawned (see strategies/common.py).
JOURNAL_LIMIT_BYTES = 4 * 1024 * 1024

#: Granularity of a throttled reader's bounded wait for the host's
#: backlog to drain (it re-checks its release conditions this often).
SCHED_TICK_S = 0.005

#: Longest one poll of a caller holding a connection's read role; the
#: caller then re-checks whether its reply was settled some other way
#: (the channel was killed from another thread).  Also the period of
#: the loop's idle sweep of a caller-read connection that serves
#: requests, so a frame nobody waits for is read within this bound.
READ_POLL_S = 0.05

#: How long a pool thread that read a request may run it while still
#: holding the connection's read role; an op that outlives this hands
#: the role to another pool thread, so intake keeps flowing.
LEAD_GRACE_S = 0.002

#: Executor threads of one :class:`~repro.core.hostloop.EventLoopServer`
#: (a private server may pass its own; the process's shared loop uses this).
HOST_EXECUTOR_THREADS = 4

#: Reader backpressure: the host's only overload control.  Stop
#: decoding frames past this queued backlog ...
HOST_INTAKE_HIGH = 768

#: ... and resume once it drains below this (hysteresis, so the reader
#: does not flap at the boundary).
HOST_INTAKE_LOW = 256

#: Capacity of both pipes of a host spawned with a network bridge.  A
#: read-ahead window's bridge reply (16 blocks of 4 KiB plus its frame
#: header) overfills the kernel's default 64 KiB pipe, so the app's
#: reply write would block until the host drained it.  Bridge-free
#: hosts keep the kernel default.
BRIDGED_PIPE_BYTES = 256 * 1024

#: Hard wall-clock bound on any single resource fault: a resource
#: injection (cpu-hog, memory-pressure, fd-exhaustion, disk-full) whose
#: requested duration exceeds this is clamped, and every fault carries
#: its own in-host watchdog so it reverts by this bound even if the
#: injecting process died mid-injection.
CHAOS_MAX_FAULT_S = 30.0

#: Blast-radius cap on one scenario's *total* scheduled injection
#: duration (the sum of every timed fault's ``seconds``); the linter
#: refuses scenarios over this.
CHAOS_MAX_TOTAL_INJECTION_S = 120.0

#: Budget for one ``chaos`` control-op exchange with a sentinel host.
CHAOS_OP_TIMEOUT = 10.0

#: Workload-side backoff between retries of an operation refused by an
#: active resource fault (e.g. an ENOSPC flush under ``disk-full``).
CHAOS_RETRY_S = 0.05

#: Default bound for the ``recovers-within`` scenario invariant when a
#: scenario names the invariant without a value.
CHAOS_RECOVERS_DEFAULT_S = 30.0

#: Overall budget for one scenario workload; a workload still running
#: past this is declared hung (the runner fails the scenario rather
#: than waiting forever).
CHAOS_WORKLOAD_TIMEOUT = 120.0


# ---------------------------------------------------------------------------
# Deadline
# ---------------------------------------------------------------------------

class Deadline:
    """An absolute monotonic-clock expiry; ``None`` expiry = unbounded.

    Deadlines are *values*: derive capped/remaining views rather than
    mutating.  Serialization for the wire is a remaining-milliseconds
    integer (:meth:`to_ms`/:meth:`from_ms`), re-anchored on the receiving
    side — absolute monotonic times do not travel between processes.
    """

    __slots__ = ("_expiry",)

    def __init__(self, expiry: float | None) -> None:
        self._expiry = expiry

    # -- constructors ------------------------------------------------------

    @classmethod
    def after(cls, seconds: float | None) -> "Deadline":
        """A deadline *seconds* from now (``None`` = never)."""
        if seconds is None:
            return _NEVER
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def never(cls) -> "Deadline":
        return _NEVER

    @classmethod
    def coerce(cls, value: "float | Deadline | None",
               default: float | None = None) -> "Deadline":
        """Accept what callers historically passed as ``timeout``.

        A :class:`Deadline` passes through; a number becomes a deadline
        that far in the future; ``None`` becomes ``after(default)``.
        """
        if isinstance(value, Deadline):
            return value
        seconds = default if value is None else value
        if seconds is None:
            return _NEVER
        return cls(time.monotonic() + float(seconds))

    @classmethod
    def from_ms(cls, ms: Any) -> "Deadline":
        """Re-anchor a wire budget (remaining milliseconds) locally.

        A :class:`Deadline` passes through: the budget of a request the
        serving loop admitted was re-anchored once, at intake.
        """
        if ms is None:
            return _NEVER
        if isinstance(ms, Deadline):
            return ms
        return cls.after(float(ms) / 1000.0)

    # -- queries -----------------------------------------------------------

    @property
    def bounded(self) -> bool:
        return self._expiry is not None

    def remaining(self) -> float | None:
        """Seconds left (clamped at 0), or ``None`` if unbounded."""
        if self._expiry is None:
            return None
        return max(0.0, self._expiry - time.monotonic())

    #: The remaining budget in the shape ``Event.wait`` expects.
    timeout = remaining

    def expired(self) -> bool:
        return self._expiry is not None and time.monotonic() >= self._expiry

    def check(self, what: str = "operation") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is gone."""
        if self.expired():
            raise DeadlineExceededError(f"deadline exceeded: {what}")

    def to_ms(self) -> int | None:
        """The remaining budget as integer milliseconds (wire form)."""
        if self._expiry is None:
            return None
        return int(max(0.0, self._expiry - time.monotonic()) * 1000)

    # -- derivation --------------------------------------------------------

    def capped(self, seconds: float) -> "Deadline":
        """The sooner of this deadline and ``after(seconds)``."""
        cap = time.monotonic() + float(seconds)
        if self._expiry is None or cap < self._expiry:
            return Deadline(cap)
        return self

    def sleep(self, seconds: float) -> None:
        """Sleep *seconds*, clipped to the remaining budget."""
        remaining = self.remaining()
        if remaining is not None:
            seconds = min(seconds, remaining)
        if seconds > 0:
            time.sleep(seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._expiry is None:
            return "Deadline(never)"
        return f"Deadline(remaining={self.remaining():.3f}s)"


_NEVER = Deadline(None)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------

class RetryPolicy:
    """Bounded exponential backoff with seeded jitter.

    ``attempts`` counts total tries (so ``attempts=3`` means the first
    try plus two retries).  ``jitter`` is the fraction of each delay
    randomized symmetrically around its nominal value; the jitter stream
    is drawn from ``random.Random(seed)``, so a seeded policy produces
    the same delay schedule every run — the property the deterministic
    fault plane and the chaos suite rely on.
    """

    __slots__ = ("attempts", "base_delay", "multiplier", "max_delay",
                 "jitter", "seed")

    def __init__(self, attempts: int = 3, base_delay: float = 0.05,
                 multiplier: float = 2.0, max_delay: float = 1.0,
                 jitter: float = 0.5, seed: int | None = None) -> None:
        self.attempts = max(1, int(attempts))
        self.base_delay = float(base_delay)
        self.multiplier = float(multiplier)
        self.max_delay = float(max_delay)
        self.jitter = float(jitter)
        self.seed = seed

    def delays(self) -> Iterator[float]:
        """The backoff schedule: one delay per retry (attempts - 1)."""
        rng = random.Random(self.seed)
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            nominal = min(delay, self.max_delay)
            if self.jitter:
                nominal *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield max(0.0, nominal)
            delay *= self.multiplier

    def run(self, fn: Callable[[], Any], *,
            retryable: "type | tuple | Callable[[BaseException], bool]",
            deadline: "Deadline | float | None" = None,
            idempotent: bool = True,
            on_retry: Callable[[BaseException, float], None] | None = None,
            ) -> Any:
        """Call *fn*, retrying retryable failures within the deadline.

        *retryable* is an exception class/tuple or a predicate; a
        non-idempotent call never retries (its first failure may have
        taken effect).  Sleeps are clipped to the deadline; when the
        budget runs out the last failure is re-raised.
        """
        deadline = Deadline.coerce(deadline)
        if callable(retryable) and not isinstance(retryable, type):
            is_retryable = retryable
        else:
            is_retryable = lambda exc: isinstance(exc, retryable)  # noqa: E731
        schedule = self.delays() if idempotent else iter(())
        while True:
            try:
                return fn()
            except BaseException as exc:
                if not is_retryable(exc):
                    raise
                delay = next(schedule, None)
                if delay is None or deadline.expired():
                    raise
                if on_retry is not None:
                    on_retry(exc, delay)
                deadline.sleep(delay)
