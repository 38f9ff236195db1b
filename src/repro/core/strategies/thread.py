"""The DLL-with-thread strategy (paper §4.3, Appendix A.3).

The sentinel is "no longer a process running separate from the
application, but just a thread in the application": opening the active
file starts a sentinel thread inside the application process, and the
application exchanges control messages and data with it through shared
memory — "There is no inter-process context switching needed ... File
data is not copied from user space to kernel space and then to user
space (as is the case with pipes), instead using only one user-level
copy."

The transport is the same :class:`~repro.core.channel.Channel`
abstraction the process strategies use, in its in-memory form: one
:class:`~repro.core.channel.LocalChannel` endpoint that serves its own
requests.  The sentinel thread's ``SentinelThrdMain`` loop — wake per
command, answer — is the process's shared event loop: its pool runs
each call, one at a time per open, and commands and payloads are never
serialized or copied, which is precisely why this strategy is the cheap
one.
"""

from __future__ import annotations

from typing import Any

from repro.core import policy
from repro.core.channel import FIRST_SESSION_CHAN, LocalChannel
from repro.core.container import Container
from repro.core.control import raise_for_response
from repro.core.dispatch import SentinelDispatcher
from repro.core.policy import Deadline
from repro.core.sentinel import make_context
from repro.core.strategies.common import CommandSession, overload_backoff
from repro.core.telemetry import TELEMETRY
from repro.errors import (
    ChannelClosedError,
    HostOverloadedError,
    SentinelCrashError,
    SessionCloseError,
)
from repro.util.naming import monotonic_name

__all__ = ["ThreadSession", "open_session", "SESSION_CHAN"]

#: The logical channel a thread session's loopback serves its calls on.
SESSION_CHAN = FIRST_SESSION_CHAN


class ThreadSession(CommandSession):
    """Application-side session talking to the injected sentinel thread:
    the :class:`CommandSession` vocabulary over an in-memory channel."""

    strategy = "thread"

    def __init__(self, channel: LocalChannel) -> None:
        self._channel = channel
        self._closed = False

    @property
    def channel(self) -> LocalChannel:
        return self._channel

    @property
    def counters(self):
        """Transport counters — same instrumentation as the wire strategies."""
        return self._channel.counters

    def _op(self, fields: dict[str, Any], payload: Any = b""
            ) -> tuple[dict[str, Any], bytes]:
        """One command round trip; a dead or wedged sentinel thread
        surfaces as :class:`SentinelCrashError`."""
        deadline = Deadline.after(policy.DEFAULT_OP_TIMEOUT)
        while True:
            try:
                out_fields, out_payload = self._channel.request(
                    SESSION_CHAN, fields, payload, timeout=deadline)
            except ChannelClosedError as exc:
                raise SentinelCrashError(
                    f"sentinel thread terminated: {exc}") from exc
            except TimeoutError as exc:
                raise SentinelCrashError(
                    f"sentinel thread unresponsive: {exc}") from exc
            try:
                raise_for_response(out_fields)
            except HostOverloadedError:
                overload_backoff(deadline, fields["cmd"])
                continue
            return out_fields, out_payload

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            # bounded wait: never hang the application (e.g. at interpreter
            # shutdown when daemon threads are frozen); close-side sentinel
            # failures are reported by the dispatcher but must not prevent
            # teardown, so the response fields are not re-raised here.
            self._channel.request(SESSION_CHAN, {"cmd": "close"},
                                  timeout=Deadline.after(policy.CLOSE_TIMEOUT))
        except (ChannelClosedError, TimeoutError) as exc:
            # The sentinel thread vanished or wedged before acking close.
            # Record the evidence on the transport counters and surface a
            # typed error — losing the close handshake may mean on_close
            # side effects (final flushes, lease releases) never ran.
            self._channel.counters.record_close_error(
                f"session close handshake failed: {exc}")
            self._channel.close()
            raise SessionCloseError(
                f"sentinel thread did not acknowledge close: {exc}") from exc
        self._channel.close()


def open_session(container: Container, network=None) -> ThreadSession:
    """Open *container* with the DLL-with-thread strategy.

    "Opening an active file 'injects' the sentinel DLL associated with
    the file into the application and starts a thread for running the
    orchestration routine."
    """
    sentinel = container.spec.instantiate()
    ctx = make_context(container, network, strategy="thread")
    dispatcher = SentinelDispatcher(sentinel, ctx)
    dispatcher.open()
    channel = LocalChannel(monotonic_name("af-thread"))
    # The "sentinel thread" of §4.3 is a logical channel on the
    # process's shared event loop — same serial-per-open semantics, but
    # a thousand thread-strategy opens do not cost a thousand threads.
    channel.register(SESSION_CHAN, dispatcher.execute)
    TELEMETRY.metrics.counter("sessions.opened.thread",
                              scope=str(container.path)).inc()
    return ThreadSession(channel)
