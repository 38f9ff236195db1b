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
abstraction the process strategies use, in its in-memory form: a
:class:`~repro.core.channel.LocalChannel` pair whose messages cross by
reference.  The sentinel thread is the channel's per-session handler
worker — it blocks on the session channel, wakes per command, and
answers, exactly the paper's ``SentinelThrdMain`` loop — but commands
and payloads are never serialized or copied, which is precisely why
this strategy is the cheap one.
"""

from __future__ import annotations

from typing import Any

from repro.core import policy
from repro.core.channel import FIRST_SESSION_CHAN, LocalChannel
from repro.core.container import Container
from repro.core.control import raise_for_response
from repro.core.dispatch import SentinelDispatcher
from repro.core.policy import Deadline
from repro.core.strategies.common import CommandSession, make_context
from repro.core.telemetry import TELEMETRY
from repro.errors import ChannelClosedError, SentinelCrashError, SessionCloseError
from repro.util.naming import monotonic_name

__all__ = ["ThreadSession", "open_session", "SESSION_CHAN"]

#: The single logical channel a thread session uses on its private pair.
SESSION_CHAN = FIRST_SESSION_CHAN


class ThreadSession(CommandSession):
    """Application-side session talking to the injected sentinel thread:
    the :class:`CommandSession` vocabulary over an in-memory channel."""

    strategy = "thread"

    def __init__(self, app_end: LocalChannel,
                 sentinel_end: LocalChannel) -> None:
        self._app_end = app_end
        self._sentinel_end = sentinel_end
        self._closed = False

    @property
    def channel(self) -> LocalChannel:
        return self._app_end

    @property
    def counters(self):
        """Transport counters — same instrumentation as the wire strategies."""
        return self._app_end.counters

    def _op(self, fields: dict[str, Any], payload: Any = b""
            ) -> tuple[dict[str, Any], bytes]:
        """One command round trip; a dead or wedged sentinel thread
        surfaces as :class:`SentinelCrashError`."""
        try:
            out_fields, out_payload = self._app_end.request(
                SESSION_CHAN, fields, payload,
                timeout=Deadline.after(policy.DEFAULT_OP_TIMEOUT))
        except ChannelClosedError as exc:
            raise SentinelCrashError(
                f"sentinel thread terminated: {exc}") from exc
        except TimeoutError as exc:
            raise SentinelCrashError(
                f"sentinel thread unresponsive: {exc}") from exc
        raise_for_response(out_fields)
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
            self._app_end.request(SESSION_CHAN, {"cmd": "close"},
                                  timeout=Deadline.after(policy.CLOSE_TIMEOUT))
        except (ChannelClosedError, TimeoutError) as exc:
            # The sentinel thread vanished or wedged before acking close.
            # Record the evidence on the transport counters and surface a
            # typed error — losing the close handshake may mean on_close
            # side effects (final flushes, lease releases) never ran.
            self._app_end.counters.record_close_error(
                f"session close handshake failed: {exc}")
            self._app_end.close()
            raise SessionCloseError(
                f"sentinel thread did not acknowledge close: {exc}") from exc
        self._app_end.close()


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
    app_end, sentinel_end = LocalChannel.pair(monotonic_name("af-thread"))

    def serve(fields: dict[str, Any],
              payload: bytes) -> tuple[dict[str, Any], bytes]:
        return dispatcher.execute(fields, payload)

    # The "sentinel thread" of §4.3 is now a logical channel on the
    # process's shared event loop — same serial-per-open semantics, but
    # a thousand thread-strategy opens no longer cost a thousand
    # threads.
    sentinel_end.register(SESSION_CHAN, serve)
    TELEMETRY.metrics.counter("sessions.opened.thread",
                              scope=str(container.path)).inc()
    return ThreadSession(app_end, sentinel_end)
