"""One multiplexed, framed transport for every channel-based strategy.

The paper's §4 strategies all speak the same logical protocol — command
in, response out — but historically each carried it over its own
transport in strict lockstep: one in-flight operation, one dedicated fd
pair per concern.  This module is the single transport they now share:

* every message is tagged with a *request id* (``rid``) and a *logical
  channel id* (``chan``) — the envelope of
  :func:`repro.core.control.split_envelope` — and every request is
  exactly one frame: nothing coalesces ops on the way out;
* a demultiplexer routes replies to per-request futures
  (:class:`PendingReply`), so callers can pipeline many operations over
  one connection;
* inbound requests are served by the process's event-loop host
  (:mod:`repro.core.hostloop`): one small thread pool serves *every*
  registered channel, so distinct logical channels (= distinct opens
  of a container) execute concurrently while each session channel
  stays strictly ordered — and a thousand channels cost O(1) threads,
  not a thousand;
* the thread that waits on a reply is the thread that reads it: on an
  application's connection the caller blocked in
  :meth:`PendingReply.wait` reads the replies itself, bridged or not;
  on a sentinel host's, a pool thread holding the read role runs an
  idle channel's request itself, keeps the role through a short op
  (leader/follower, with a lazy hand-off), and reads its own reply
  when that op waits on one (see :class:`StreamChannel`);
* the transport keeps per-operation latency/throughput counters
  (:class:`ChannelCounters`), so every strategy gets instrumentation
  for free.

Two concrete transports exist:

* :class:`StreamChannel` — length-prefixed frames over a byte-stream
  pair (the sentinel-host connection of :mod:`repro.core.runner` and the
  network bridge of :mod:`repro.core.netproxy` share one of these);
* :class:`LocalChannel` — an in-memory loopback for a same-process
  handler (the thread strategy): one endpoint serves its own requests
  with identical semantics and no serialization, which is exactly why
  that strategy is cheaper.

Both sides of a channel may originate requests: the application opens
files and issues file operations; a sentinel child issues network-bridge
calls back to the application.  Channel 0 is reserved for that
control/bridge traffic; sessions use channels 1 and up.
"""

from __future__ import annotations

import select
import threading
import time
from typing import Any, BinaryIO, Callable

from repro.core import control, hostloop
from repro.core.policy import JOIN_TIMEOUT, READ_POLL_S, Deadline
from repro.core.telemetry import TELEMETRY
from repro.errors import (
    ChannelClosedError,
    DeadlineExceededError,
    FrameError,
    ProtocolError,
)
from repro.util.framing import write_frame

__all__ = [
    "Channel",
    "StreamChannel",
    "LocalChannel",
    "PendingReply",
    "ChannelCounters",
    "CONTROL_CHAN",
    "FIRST_SESSION_CHAN",
]

#: The reserved channel for connection control and bridge traffic.
CONTROL_CHAN = control.CONTROL_CHAN

#: The first channel id handed to a logical session.
FIRST_SESSION_CHAN = 1

Handler = Callable[[dict[str, Any], bytes], "tuple[dict[str, Any], bytes]"]

#: Header-encoding counters, module-cached so the send path never takes
#: the metrics-registry lock.
_HDR_BINARY = TELEMETRY.metrics.counter("transport.header.binary")
_HDR_JSON = TELEMETRY.metrics.counter("transport.header.json")

#: What the send path accepts as a payload: one buffer, or a sequence of
#: buffers gathered under the same frame (scatter-gather, copy-free on
#: the wire transport).
Payload = "bytes | bytearray | memoryview | tuple | list"


def _payload_parts(payload: Any) -> tuple:
    """Normalize a payload into a tuple of buffer parts."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return (payload,)
    return tuple(payload)


def _close_quietly(stream: BinaryIO) -> None:
    try:
        stream.close()
    except (BrokenPipeError, OSError, ValueError):
        pass


class ChannelCounters:
    """Thread-safe per-connection transport counters.

    ``max_in_flight`` is the high-water mark of concurrently outstanding
    requests — the direct measure of pipelining: it exceeds 1 only when
    a second operation was sent before the first one's reply arrived.

    The owning :class:`Channel` guards its rid counter and pending map
    with :attr:`lock` too, so a request and a reply each take it once;
    the ``*_locked`` methods run under it.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests_sent = 0
        self.replies_received = 0
        self.requests_served = 0
        self.requests_failed = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.close_errors = 0
        self.last_close_error = ""
        #: Monotonic time of the last send/settle/serve — what the idle
        #: heartbeat of :mod:`repro.core.runner` keys off.
        self.last_activity = time.monotonic()
        #: op -> [count, bytes_out, bytes_in, total_latency_s, max_latency_s]
        self._per_op: dict[str, list[float]] = {}
        #: op -> shared global latency histogram (cached so the settle
        #: path never takes the registry lock).
        self._latency: dict[str, Any] = {}

    def started_locked(self, nbytes: int, now: float) -> None:
        self.requests_sent += 1
        self.bytes_sent += nbytes
        self.in_flight += 1
        self.last_activity = now
        if self.in_flight > self.max_in_flight:
            self.max_in_flight = self.in_flight

    def settled_locked(self, op: str, nbytes: int, elapsed: float,
                       ok: bool, now: float) -> None:
        self.in_flight -= 1
        self.last_activity = now
        if ok:
            self.replies_received += 1
            self.bytes_received += nbytes
        else:
            self.requests_failed += 1
        record = self._per_op.get(op)
        if record is None:
            record = self._per_op[op] = [0, 0, 0, 0.0, 0.0]
        record[0] += 1
        record[2] += nbytes
        record[3] += elapsed
        if elapsed > record[4]:
            record[4] = elapsed

    def withdrawn_locked(self) -> None:
        """A request was aborted before any reply (send error, timeout)."""
        self.in_flight -= 1
        self.requests_failed += 1

    def observe(self, op: str, elapsed: float) -> None:
        """Feed a settled request's latency to ``transport.latency.<op>``
        (outside :attr:`lock`: the histogram has its own)."""
        hist = self._latency.get(op)
        if hist is None:
            hist = self._latency[op] = TELEMETRY.metrics.histogram(
                f"transport.latency.{op}")
        hist.observe(elapsed)

    def request_served(self, op: str) -> None:
        """An inbound request was handled locally (other side of the wire)."""
        with self.lock:
            self.requests_served += 1
            self.last_activity = time.monotonic()

    def record_close_error(self, reason: str) -> None:
        """A session teardown failed; keep it observable, not silent."""
        with self.lock:
            self.close_errors += 1
            self.last_close_error = reason

    def snapshot(self) -> dict[str, Any]:
        """A plain-data copy of every counter, for tests and monitoring."""
        with self.lock:
            per_op = {}
            for op, (count, out, in_, total, peak) in self._per_op.items():
                count = int(count)
                per_op[op] = {
                    "count": count,
                    "bytes_in": int(in_),
                    "total_latency_s": total,
                    "mean_latency_s": (total / count) if count else 0.0,
                    "max_latency_s": peak,
                }
            return {
                "requests_sent": self.requests_sent,
                "replies_received": self.replies_received,
                "requests_served": self.requests_served,
                "requests_failed": self.requests_failed,
                "bytes_sent": self.bytes_sent,
                "bytes_received": self.bytes_received,
                "in_flight": self.in_flight,
                "max_in_flight": self.max_in_flight,
                "close_errors": self.close_errors,
                "last_close_error": self.last_close_error,
                "per_op": per_op,
            }


def _wake_up(wake: "threading.Lock | None") -> None:
    """Release a parked waiter's wake-up lock (see :class:`PendingReply`).

    Two wakers may race for one sleeper (its reply landing, and the
    read role passing to it); the second release finds the lock open
    and is dropped — the woken thread re-checks its state either way.
    """
    if wake is not None:
        try:
            wake.release()
        except RuntimeError:
            pass


class PendingReply:
    """A per-request future: one in-flight operation awaiting its reply.

    Its state is a plain slot: the reply (or error) and a :attr:`done`
    flag, set by the one thread that took the request off its
    channel's pending map.  A waiter that has to block creates its
    wake-up — a lock it holds and blocks re-acquiring — only then
    (:meth:`_arm`), and looks at :attr:`done` once more after arming,
    so a settle racing it is never lost: the settler sets the flag
    before it looks for a wake-up to release.  A depth-1 round trip
    whose caller reads its own reply creates no synchronization object
    at all.  One thread waits on a future.
    """

    __slots__ = ("channel", "rid", "op", "started", "span", "done",
                 "_wake", "_fields", "_payload", "_error")

    def __init__(self, channel: "Channel", rid: int, op: str,
                 started: float) -> None:
        self.channel = channel
        self.rid = rid
        self.op = op
        self.started = started
        #: The frame span covering this request's wire round trip (only
        #: set while tracing; finished at settle/withdraw time).
        self.span = None
        self.done = False
        self._wake: "threading.Lock | None" = None
        self._fields: dict[str, Any] | None = None
        self._payload = b""
        self._error: BaseException | None = None

    def resolve(self, fields: dict[str, Any], payload: bytes) -> None:
        self._fields = fields
        self._payload = payload
        if self.span is not None:
            TELEMETRY.finish(self.span)
        self.done = True
        _wake_up(self._wake)

    def fail(self, error: BaseException) -> None:
        self._error = error
        if self.span is not None:
            self.span.set(error=type(error).__name__)
            TELEMETRY.finish(self.span, status="error")
        self.done = True
        _wake_up(self._wake)

    def _arm(self) -> threading.Lock:
        """This waiter's wake-up, created (held) on first need."""
        wake = self._wake
        if wake is None:
            wake = threading.Lock()
            wake.acquire()
            self._wake = wake
        return wake

    def _sleep(self, deadline: Deadline) -> bool:
        """Block until settled; False if *deadline* passes first."""
        wake = self._arm()
        while not self.done:
            timeout = deadline.timeout()
            if timeout is None:
                wake.acquire()
            elif not wake.acquire(True, timeout):
                return self.done
        return True

    def wait(self, timeout: "float | Deadline | None" = None
             ) -> tuple[dict[str, Any], bytes]:
        """Block for the reply; raises on channel death or deadline expiry.

        *timeout* is a :class:`~repro.core.policy.Deadline` or the
        legacy seconds-from-now float.
        """
        deadline = Deadline.coerce(timeout)
        if not self.done and not self.channel._await(self, deadline):
            if self.channel._withdraw(self.rid) is self:
                if self.span is not None:
                    TELEMETRY.finish(self.span, status="timeout")
                raise DeadlineExceededError(
                    f"no reply to {self.op!r} (rid {self.rid}) "
                    f"within its deadline")
            # Resolution was racing; it is imminent.
            self._sleep(Deadline.never())
        if self._error is not None:
            raise self._error
        return self._fields or {}, self._payload


class Channel:
    """The multiplexed request/reply core, independent of the byte transport.

    Subclasses provide :meth:`_send` (deliver one message) and arrange
    for inbound messages to reach :meth:`_dispatch`, or, with no wire
    in between, :meth:`_serve` and :meth:`_deliver`.
    """

    def __init__(self, name: str = "channel") -> None:
        self.name = name
        self.counters = ChannelCounters()
        # Re-home this connection's counters under telemetry.snapshot();
        # the registry holds only a weak reference, so a closed channel's
        # entry disappears with it.
        TELEMETRY.register_collector("transport", name, self.counters,
                                     ChannelCounters.snapshot)
        self.dead = False
        self.death_reason = ""
        self.death_error: BaseException | None = None
        #: Optional ``reason -> exception`` hook; when set, transport
        #: death fails in-flight futures with the typed error it builds
        #: (the sentinel host installs a crash-error factory here).
        self.crash_error_factory: "Callable[[str], BaseException] | None" = None
        self._closed_event = threading.Event()
        #: One lock for the rid counter, the pending map and the
        #: counters: a request and a reply each take it once.
        self._lock = self.counters.lock
        self._pending: dict[int, PendingReply] = {}
        self._next_rid = 0
        #: chan -> serving state on the loop
        #: (:class:`~repro.core.hostloop._ChanState`).
        self._handlers: dict[int, Any] = {}
        self._handlers_lock = threading.Lock()
        #: Pin this channel's serving to a specific
        #: :class:`~repro.core.hostloop.EventLoopServer` (tests);
        #: defaults to the process-shared loop.
        self.loop = None
        #: The loop actually serving this channel (set by the first
        #: :meth:`register`, or by ``start(serve=True)``; None while it
        #: serves none).
        self.serve_loop = None

    # -- requester side ----------------------------------------------------------

    def request_async(self, chan: int, fields: dict[str, Any],
                      payload: Any = b"",
                      deadline: "Deadline | float | None" = None
                      ) -> PendingReply:
        """Send one request and return its future without waiting.

        *payload* may be a single buffer (``bytes``/``bytearray``/
        ``memoryview``) or a sequence of buffers to gather under one
        frame — the scatter-gather path used by the vectored ops.
        A bounded *deadline* travels with the request as its remaining
        millisecond budget (the ``dl`` envelope field), so the peer's
        worker and any nested exchanges inherit it.
        """
        deadline = Deadline.coerce(deadline)
        op = str(fields.get("cmd") or fields.get("op") or "?")
        parts = _payload_parts(payload)
        now = time.monotonic()
        with self._lock:
            # Checked under the lock kill() takes: a request registered
            # here is one kill() fails, never one it misses.
            self._check_alive()
            self._next_rid = rid = self._next_rid + 1
            pending = PendingReply(self, rid, op, now)
            self._pending[rid] = pending
            self.counters.started_locked(sum(map(len, parts)), now)
        tc = None
        if TELEMETRY.tracing:  # one branch per frame when disabled
            parent = TELEMETRY.current()
            if parent is not None:
                pending.span = TELEMETRY.begin(f"frame.{op}", parent=parent,
                                               attrs={"chan": int(chan)})
                tc = (pending.span.trace, pending.span.sid)
        try:
            # The ``dl`` budget is stamped here, at send time, so it is
            # the sender's remaining budget when the frame leaves.
            self._send(rid, int(chan), fields, parts,
                       dl=deadline.to_ms(), tc=tc)
        except BaseException:
            if self._withdraw(rid) is pending and pending.span is not None:
                TELEMETRY.finish(pending.span, status="error")
            raise
        return pending

    def request(self, chan: int, fields: dict[str, Any],
                payload: Any = b"",
                timeout: "float | Deadline | None" = None
                ) -> tuple[dict[str, Any], bytes]:
        """One pipelinable command/response round trip."""
        deadline = Deadline.coerce(timeout)
        return self.request_async(chan, fields, payload,
                                  deadline=deadline).wait(deadline)

    # -- responder side ----------------------------------------------------------

    def register(self, chan: int, handler: Handler) -> None:
        """Serve inbound requests on *chan* with *handler*, on the
        process's event-loop host, which decides from *chan* alone how
        its requests are served (see :mod:`repro.core.hostloop`)."""
        chan = int(chan)
        server = self.loop if self.loop is not None \
            else hostloop.shared_loop()
        state = server.attach(self, chan, handler)
        self.serve_loop = server
        with self._handlers_lock:
            old = self._handlers.get(chan)
            self._handlers[chan] = state
        if old is not None:
            old.stop()

    def unregister(self, chan: int) -> None:
        with self._handlers_lock:
            state = self._handlers.pop(int(chan), None)
        if state is not None:
            state.stop()

    # -- routing ----------------------------------------------------------------

    def _dispatch(self, fields: dict[str, Any], payload: bytes,
                  lead: "Callable[[], bool] | None" = None) -> Any:
        """Route one inbound message: reply -> future, request -> loop.

        *lead* is the read role of the calling thread, offered so the
        loop may hand it on and have this thread run the request
        itself; the returned grant (or None) says whether it did.
        """
        rid, chan, is_reply, rest = control.split_envelope(fields)
        if is_reply:
            self._deliver(rid, rest, payload)
            return None
        return self._serve(rid, chan, rest, payload, lead)

    def _deliver(self, rid: int, fields: dict[str, Any],
                 payload: bytes) -> None:
        """Resolve *rid*'s future with its reply, if anyone waits for it."""
        pending = self._settle(rid, len(payload))
        if pending is not None:
            if "tsp" in fields:  # spans the peer produced serving us
                TELEMETRY.ingest(fields.pop("tsp"), anchor=pending.span)
            pending.resolve(fields, payload)

    def _serve(self, rid: int, chan: int, fields: dict[str, Any],
               payload: bytes,
               lead: "Callable[[], bool] | None" = None) -> Any:
        """Hand one inbound request to *chan*'s serving state (see
        :meth:`_dispatch` for *lead*), or answer that none exists."""
        # A lock-free read: register/unregister replace entries whole.
        state = self._handlers.get(chan)
        if state is None:
            try:
                self._send_reply(rid, chan, control.error_fields(
                    ProtocolError(f"no handler for channel {chan}")), b"")
            except (ChannelClosedError, OSError, ValueError):
                pass
            return None
        return state.submit(rid, fields, payload, lead)

    def _await(self, pending: PendingReply, deadline: Deadline) -> bool:
        """Block until *pending* settles; False if *deadline* expires."""
        return pending._sleep(deadline)

    def _settle(self, rid: int, nbytes: int) -> PendingReply | None:
        """Take *rid*'s future off the pending map and count its reply of
        *nbytes*, in one lock round; None if nobody waits for it."""
        with self._lock:
            pending = self._pending.pop(rid, None)
            if pending is None:
                return None
            now = time.monotonic()
            elapsed = now - pending.started
            self.counters.settled_locked(pending.op, nbytes, elapsed, True,
                                         now)
        self.counters.observe(pending.op, elapsed)
        return pending

    def _withdraw(self, rid: int) -> PendingReply | None:
        """Take *rid*'s future off the pending map unanswered (a send
        error or an expired deadline), counted as failed."""
        with self._lock:
            pending = self._pending.pop(rid, None)
            if pending is not None:
                self.counters.withdrawn_locked()
        return pending

    def _send_reply(self, rid: int, chan: int, fields: dict[str, Any],
                    payload: Any) -> None:
        self._send(rid, chan, fields, _payload_parts(payload), reply=True)

    # -- lifecycle ---------------------------------------------------------------

    def _check_alive(self) -> None:
        if self.dead:
            raise ChannelClosedError(
                f"{self.name}: channel closed ({self.death_reason})")

    def kill(self, reason: str, error: BaseException | None = None) -> None:
        """Mark the channel dead and fail every outstanding request.

        *error* (or the installed :attr:`crash_error_factory`) types the
        failure handed to in-flight futures — a crashed sentinel host
        surfaces as ``SentinelCrashedError`` rather than a bare closed
        channel.
        """
        with self._lock:
            if self.dead:
                return
            self.dead = True
            self.death_reason = reason
            pending = list(self._pending.values())
            self._pending.clear()
            now = time.monotonic()
            for future in pending:
                self.counters.settled_locked(future.op, 0,
                                             now - future.started, False, now)
        if error is None and self.crash_error_factory is not None:
            try:
                error = self.crash_error_factory(reason)
            except Exception:
                error = None
        if error is None:
            error = ChannelClosedError(f"{self.name}: {reason}")
        self.death_error = error
        for future in pending:
            self.counters.observe(future.op, now - future.started)
            future.fail(error)
        with self._handlers_lock:
            states = list(self._handlers.values())
            self._handlers.clear()
        for state in states:
            state.stop()
        self._teardown()
        self._closed_event.set()

    def close(self) -> None:
        # A deliberate close is not a crash: bypass the factory.
        self.kill("channel closed",
                  error=ChannelClosedError(f"{self.name}: channel closed"))

    def wait_closed(self, timeout: float | None = None) -> bool:
        """Block until the channel dies (peer EOF or local close)."""
        return self._closed_event.wait(timeout)

    def _teardown(self) -> None:
        """Subclass hook: release transport resources (idempotent)."""

    def _send(self, rid: int, chan: int, fields: dict[str, Any],
              parts: tuple, *, reply: bool = False,
              dl: "int | None" = None, tc: "tuple | None" = None) -> None:
        """Deliver one message: *fields* under its envelope (*rid*,
        *chan*, the *reply* flag, a request's ``dl`` budget and ``tc``
        trace context), which travels beside *fields* so that no
        enveloped copy of them is built; *parts* is a tuple of buffers
        forming the payload back-to-back."""
        raise NotImplementedError


class StreamChannel(Channel):
    """A channel over a byte-stream pair, framed and demultiplexed.

    Reading is a *role* one thread holds at a time.  Whichever thread
    waits on a reply reads it; who holds the role in between depends
    on how the connection was started:

    * **Callers read** (:meth:`start`: every application connection,
      with or without a network bridge): a caller blocked in
      :meth:`PendingReply.wait` takes the role, polls the connection
      within its :class:`~repro.core.policy.Deadline`, dispatches every
      frame it reads — so other callers' replies resolve their futures,
      and requests (bridge calls) go to the serving loop's pool, never
      inline — and gives the role up when its own reply lands.  Callers
      without the role park by rid; a reply wakes only its own caller,
      and a holder giving the role up wakes one parked caller to take
      it on.  A depth-1 round trip thus wakes no one.  If a
      handler is registered by :meth:`start`, the loop sweeps up
      frames nobody waits for every
      :data:`~repro.core.policy.READ_POLL_S`, taking the role only when
      it is free.
    * **The loop reads** (``start(serve=True)``: a sentinel host
      child's connection): the serving loop's pool carries the role.  A
      pool thread reads frames, resolves replies, and runs an idle
      channel's request itself, keeping the role unless the op
      outlives a grace period (see :mod:`repro.core.hostloop`).  When
      that op waits on a reply over this connection, the same thread
      reads frames until the reply lands.

    Writes from any thread are serialized by a lock.
    """

    def __init__(self, rfile: BinaryIO, wfile: BinaryIO,
                 name: str = "stream-channel") -> None:
        super().__init__(name)
        self._rfile = rfile
        self._wfile = wfile
        self._write_lock = threading.Lock()
        #: Guards the read role and :attr:`_sleepers`.
        self._role = threading.Lock()
        self._reading = False   # some thread holds the read role
        #: Callers parked without the role, rid -> future.  Each sleeps
        #: on its own wake-up until its reply lands (the settle wakes
        #: it) or a holder giving the role up picks it to read next.
        self._sleepers: dict[int, PendingReply] = {}
        #: Set by :meth:`start`; polled by whichever thread reads in
        #: place (a caller, the sweep, or an op holding the loop's role).
        self._poller: "select.poll | None" = None
        #: True once started with ``serve=True``: the loop reads.
        self._serving = False
        #: The armed idle sweep of a caller-read connection with a
        #: handler (see :meth:`_sweep`).
        self._sweep_timer: "hostloop.TimerHandle | None" = None
        #: Optional :class:`~repro.core.faults.FaultPlane` consulted on
        #: every send/receive (the framing-layer injection points).
        self.faults = None
        #: Callback for the ``kill`` fault action (the sentinel host
        #: wires this to hard-killing its child process).
        self.fault_kill: "Callable[[], None] | None" = None

    def start(self, *, serve: bool = False) -> "StreamChannel":
        """Start reading; the channel is unusable before this.

        With *serve* the loop's pool reads every frame (a sentinel host
        child's connection).  Otherwise callers read their own replies,
        the loop sweeps up requests if a handler is registered by now,
        and :meth:`register` is refused from here on.
        """
        self._poller = select.poll()
        self._poller.register(self._rfile.fileno(), select.POLLIN)
        if not serve:
            if self.serve_loop is not None:
                self._arm_sweep()
            return self
        self._serving = True
        self._reading = True  # the loop holds the role from here on
        if self.serve_loop is None:
            self.serve_loop = self.loop if self.loop is not None \
                else hostloop.shared_loop()
        self.serve_loop.add_reader(self._lead)
        return self

    def register(self, chan: int, handler: Handler) -> None:
        if self._poller is not None and not self._serving:
            raise RuntimeError(
                f"{self.name}: its callers read it, and the loop sweeps "
                f"it only for handlers registered before start()")
        super().register(chan, handler)

    # -- reading -----------------------------------------------------------------

    def _read_one(self) -> "tuple[dict[str, Any], bytes] | None":
        """Read one frame; None if the fault plane dropped it."""
        fields, payload = control.read_wire_message(self._rfile)
        plane = self.faults
        if plane is not None:
            rule = plane.on_recv(fields)
            if rule is not None and rule.action == "drop":
                return None  # inbound message lost after decode
        return fields, payload

    def _drop_role(self) -> None:
        """Give the read role up; on a dead channel, close _rfile."""
        with self._role:
            self._reading = False
            if self.dead:
                _close_quietly(self._rfile)
            if self._sleepers:
                self._pass_role_locked()

    def _pass_role_locked(self) -> None:
        """Wake the longest-parked caller still owed a reply, to take up
        the free read role.  Callers whose replies landed were woken by
        their settle; their entries go as they are met."""
        sleepers = self._sleepers
        while sleepers:
            pending = sleepers.pop(next(iter(sleepers)))
            if not pending.done:
                _wake_up(pending._wake)
                return

    def _lead(self) -> bool:
        """Hold the read role on a serving-loop thread.

        Requests the loop grants to this thread run inline; the thread
        keeps reading after each one for as long as the loop leaves it
        the role.  Returns False once the role went to another pool
        thread during such a request, True once the connection has
        ended.
        """
        while not self.dead:
            try:
                message = self._read_one()
                grant = None if message is None else \
                    self._dispatch(*message, lead=self._lead)
            except (ChannelClosedError, FrameError, OSError,
                    ValueError) as exc:
                self.kill(f"transport closed: {exc}")
                break
            if grant is not None and not grant.run(self._lead):
                return False  # another pool thread reads from here on
            # Backpressure: past the intake high-water mark the reader
            # stalls here, leaving the flood in the kernel pipe instead
            # of this process.
            self.serve_loop.throttle(self)
        self._drop_role()
        return True

    def _await(self, pending: PendingReply, deadline: Deadline) -> bool:
        if self._poller is None:  # nothing started
            return super()._await(pending, deadline)
        if self._serving:
            return self._await_served(pending, deadline)
        rid = pending.rid
        while True:
            with self._role:
                self._sleepers.pop(rid, None)  # back from a wake-up
                if self._reading or self.dead:
                    # Arm before the last look at the flag: a reply
                    # landing after it finds the wake-up to release.
                    # kill() settles every future, so a dead channel
                    # returns here.
                    wake = pending._arm()
                    if pending.done:
                        return True
                    self._sleepers[rid] = pending
                else:
                    if pending.done:
                        return True
                    self._reading = True
                    wake = None
            if wake is None:
                try:
                    self._read_until(pending, deadline)
                finally:
                    self._drop_role()
                if not pending.done and deadline.expired():
                    return False
                continue
            timeout = deadline.timeout()
            if timeout is None:
                wake.acquire()
            elif not wake.acquire(True, timeout):
                with self._role:
                    if self._sleepers.pop(rid, None) is None \
                            and not self._reading and not pending.done:
                        # Picked to read next as the deadline passed:
                        # hand the role on rather than strand it.
                        self._pass_role_locked()
                return pending.done

    def _await_served(self, pending: PendingReply,
                      deadline: Deadline) -> bool:
        """Wait on a reply over a connection the loop reads.

        An op holding the read role reads until its reply lands.  Any
        other waiter hands the role on if it is held through an op —
        only its holder could read the reply — and sleeps.
        """
        loop = self.serve_loop
        if not loop.claim_lead(self._lead):
            loop.release_lead(self._lead)
            return pending._sleep(deadline)
        try:
            self._read_until(pending, deadline)
        finally:
            loop.rearm_lead(self._lead)
        return pending.done

    def _read_until(self, pending: PendingReply,
                    deadline: Deadline) -> None:
        """Read and dispatch frames in place, until *pending* settles,
        *deadline* expires or the connection ends."""
        while not pending.done and not self.dead:
            remaining = deadline.timeout()
            if remaining is not None and remaining <= 0:
                return
            self._read_ready(READ_POLL_S if remaining is None
                             else min(remaining, READ_POLL_S))

    def _read_ready(self, wait_s: float) -> bool:
        """Read and dispatch one frame if one arrives within *wait_s*;
        False if none did or the connection ended.  A reply the frame
        carries wakes its own caller, if that caller sleeps."""
        if not self._poller.poll(wait_s * 1000.0):
            return False
        try:
            message = self._read_one()
            if message is not None:
                self._dispatch(*message)
        except (ChannelClosedError, FrameError, OSError,
                ValueError) as exc:
            self.kill(f"transport closed: {exc}")
            return False
        return True

    def _arm_sweep(self) -> None:
        # Under the role lock, as _teardown cancels: once the channel is
        # dead no sweep stays armed.
        with self._role:
            if not self.dead:
                self._sweep_timer = self.serve_loop.call_later(
                    READ_POLL_S, self._sweep)

    def _sweep(self) -> None:
        """Read the frames no caller waits for, if the role is free.

        A peer calls back while a caller here waits on it, so that
        caller reads the request; this catches the rest (a request
        whose caller timed out meanwhile, a background flush) within
        READ_POLL_S.  Re-arms itself until the channel dies.
        """
        if self.dead:
            return
        with self._role:
            idle = not self._reading
            if idle:
                self._reading = True
        if idle:
            try:
                while not self.dead and self._read_ready(0.0):
                    pass
            finally:
                self._drop_role()
        if not self.dead:
            self._arm_sweep()

    def _send(self, rid: int, chan: int, fields: dict[str, Any],
              parts: tuple, *, reply: bool = False,
              dl: "int | None" = None, tc: "tuple | None" = None) -> None:
        self._check_alive()
        plane = self.faults
        if plane is not None:
            rule = plane.on_send(fields)
            if rule is not None and self._inject_send_fault(rule):
                return  # the frame never reached the wire
        # Hot-op headers pack to a tagged struct; everything else (and
        # anything the binary codec does not recognize, a trace context
        # included) stays JSON.
        head = None if tc is not None else control.encode_head_wire(
            fields, rid, chan, reply=reply, dl=dl)
        if head is None:
            head = control.encode_head(
                control.envelope(fields, rid, chan, reply, dl, tc))
            _HDR_JSON.inc()
        else:
            _HDR_BINARY.inc()
        try:
            with self._write_lock:
                # Every part rides the frame as its own write: headers,
                # blocks, and gathered extents are never concatenated.
                write_frame(self._wfile, head, *parts)
        except (BrokenPipeError, OSError, ValueError) as exc:
            self.kill(f"transport write failed: {exc}")
            raise ChannelClosedError(f"{self.name}: write failed: {exc}") from exc

    def _inject_send_fault(self, rule) -> bool:
        """Apply one fired send-point fault; True = swallow the frame."""
        if rule.action == "drop":
            return True
        if rule.action == "delay":
            time.sleep(rule.seconds)
            return False
        if rule.action == "kill":
            kill = self.fault_kill
            if kill is not None:
                kill()
            # Fall through to the real write: it races the dying peer,
            # exactly like an organic crash.
            return False
        if rule.action == "corrupt":
            # The peer decodes garbage, raises FrameError, and tears its
            # end down; the intended frame is lost.
            try:
                with self._write_lock:
                    write_frame(self._wfile, b"\xff" * 16)
            except (BrokenPipeError, OSError, ValueError):
                pass
            return True
        if rule.action == "eof":
            # A frame header promising more bytes than will ever come,
            # then the connection drops: EOF mid-frame on the peer.
            try:
                with self._write_lock:
                    self._wfile.write((1 << 16).to_bytes(4, "big") + b"\x00")
            except (BrokenPipeError, OSError, ValueError):
                pass
            self.kill("fault injected: EOF mid-frame")
            raise ChannelClosedError(
                f"{self.name}: fault injected: EOF mid-frame")
        return False

    def _teardown(self) -> None:
        # Serialize with in-flight senders: a thread between _send's
        # liveness check and the actual write(2) must never observe its
        # descriptor closed underneath it — the freed fd number can be
        # recycled by an unrelated pipe, and the straggler would then
        # write into (or poach bytes from) someone else's transport.  If
        # the lock cannot be had (a sender blocked on a full pipe is
        # already inside write(2), where the kernel pins the open file
        # description), closing is safe anyway.
        acquired = self._write_lock.acquire(timeout=JOIN_TIMEOUT)
        try:
            _close_quietly(self._wfile)
        finally:
            if acquired:
                self._write_lock.release()
        # Same hazard on the read side: only the read-role holder may
        # close _rfile, since it may be between FileIO's fd check and
        # read(2).  Closing our write end above gives the peer EOF; the
        # peer's teardown closes its write end, the holder unblocks on
        # EOF (or its poll notices the death) and closes _rfile as it
        # drops the role.  Parked callers wake: kill() has settled
        # their futures.
        with self._role:
            if self._sweep_timer is not None:
                self._sweep_timer.cancel()
            if not self._reading:
                _close_quietly(self._rfile)
            sleepers = list(self._sleepers.values())
            self._sleepers.clear()
        for pending in sleepers:
            _wake_up(pending._wake)


class LocalChannel(Channel):
    """An in-memory loopback endpoint: it serves its own requests.

    A request goes straight to the loop serving the handler registered
    on this channel, and a reply straight to the caller's future:
    nothing is enveloped or decoded, and field values cross by
    reference — the thread strategy's "only one user-level copy"
    property (here: none), with the same futures, deadlines, spans and
    counters as the wire transport.
    """

    def _send(self, rid: int, chan: int, fields: dict[str, Any],
              parts: tuple, *, reply: bool = False,
              dl: "int | None" = None, tc: "tuple | None" = None) -> None:
        self._check_alive()
        if len(parts) == 1 and isinstance(parts[0], bytes):
            payload = parts[0]  # cross by reference: zero copies
        else:
            # Handlers receive immutable bytes; materialize views and
            # gathered extents so the sender may reuse its buffers.
            payload = b"".join(parts)
        if reply:
            self._deliver(rid, fields, payload)
        else:
            # The loop pops ``dl``/``tc`` off the fields it is handed
            # and the handler may change them: give it its own dict.
            self._serve(rid, chan, {**fields, "dl": dl, "tc": tc}, payload)
