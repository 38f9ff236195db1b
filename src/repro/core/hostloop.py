"""The event-loop sentinel host: O(1) threads for O(n) logical channels.

The paper's §2 contract — "multiple opens spawn multiple synchronizing
sentinels" — was once served by one dedicated worker thread per
logical channel.  That caps host concurrency at thread overhead long
before "millions of users": a pooled host with a thousand opens
carried a thousand stacks.

:class:`EventLoopServer` serves every channel of a process from one
small pool of interchangeable threads, preserving the two properties
the worker model guaranteed:

* **serial per session** — a session channel's (id 1 and up) requests
  execute strictly in arrival order (that *is* the §2 semantic
  contract: one open, one synchronizing sentinel);
* **concurrent across channels** — distinct channels make progress
  independently, bounded by the pool instead of the thread count.

The channel id alone decides how a channel is served.  Channel 0
carries a connection's control and bridge messages (§4.2: ``open``,
``ping`` and ``chaos`` on a sentinel host, network-bridge calls on the
application), which need no order among themselves, so each channel-0
request takes a grant of its own and the requests of one connection
run at the same time on the pool: a read-ahead window reaches the
origin while the window before it is still on the wire, and a ``ping``
answers while an ``open`` runs.

**Leader/follower serving.**  Reading a connection is a *role* that
one pool thread holds at a time (the leader).  When a request arrives
for an idle channel and the loop has nothing else admitted, the leader
runs the op itself and *keeps the role*: after the reply it goes
straight back to reading, so a depth-1 op costs the host one wake-up
(the leader's blocking read) and no in-process hand-off.  An op that
waits on a reply over the same connection (a bridge call, a read-ahead
window already in flight) does not give the role up either: the
leader reads frames itself until its reply lands, queueing any
requests it reads to the pool (:meth:`EventLoopServer.claim_lead`).
The role moves to another pool thread (the follower), which keeps
intake, channel-0 ``ping``/``open`` and bridge replies flowing, only
when the leader could stall them:

* **grace hand-off** — the op outlives
  :data:`~repro.core.policy.LEAD_GRACE_S` while not reading; the timer
  thread, acting as sentry, moves the role then;
* **waiter hand-off** — when a thread other than the leader waits on a
  reply over the connection while the leader runs an op
  (:meth:`EventLoopServer.release_lead`), so that waiter never waits
  out the grace period for its reply.

Otherwise (the channel is busy, or other requests are admitted) the
leader grants the channel straight to the pool's ready queue, where
any free thread picks it up.

Scheduling is round-robin over ready channels: a channel finishing an
op goes to the *tail* of the ready queue, so a saturated channel can
delay an idle sibling by at most the ops currently ahead of it — never
starve it.  Admission control bounds the damage of a flood: past the
global in-flight high-water mark (or a channel's FIFO bound), session
requests are fast-rejected with a typed
:class:`~repro.errors.HostOverloadedError` *from the reading thread*,
so a reject costs no queueing at all.  The control/bridge channel
(channel 0) is exempt — ``open``/``ping``/bridge traffic must never be
rejected, or recovery itself would be load-shed.

Backpressure is the reader throttling itself (:meth:`throttle`): past
the intake high-water mark the leader stops decoding frames until the
backlog drains below the low-water mark.  The stall is conditional on
the connection having **zero in-flight outbound requests**: replies
are resolved by the reading thread itself, and a sentinel's bridge
calls ride the same connection — stalling while a reply is owed would
deadlock the very handler we are waiting for.

Deadline (``dl``) and trace-context (``tc``) are popped at submit time
on the reading thread, so queue wait counts against the sender's
budget, and the dispatch span parents on the sender's frame span (see
:func:`serve_one`).  A timer thread, started with the first carried
connection or the first :meth:`~EventLoopServer.call_later`, owns the
timer wheel and is the read-role sentry; it is never on the request
path, and a busy stream of short ops never wakes it.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import threading
import time
from collections import deque
from typing import Any, Callable

from repro.core import control, policy
from repro.core.policy import Deadline
from repro.core.telemetry import TELEMETRY
from repro.errors import (
    ChannelClosedError,
    DeadlineExceededError,
    HostOverloadedError,
    ProtocolError,
)

__all__ = [
    "HOST_STAT_KEYS",
    "EventLoopServer",
    "TimerHandle",
    "serve_one",
    "latency_split_stats",
    "shared_loop",
    "serving_stats",
]

#: The keys of :meth:`EventLoopServer.stats`: the loop's ``host.*``
#: gauges, in a snapshot's ``host`` section and in every ``ping`` reply.
HOST_STAT_KEYS = ("host.channels.active", "host.queue.depth",
                  "host.inflight", "host.rejects",
                  "host.backpressure.stalls", "host.executors",
                  "host.timers")

#: End-to-end host latency, split at the scheduling grant: time an
#: admitted request waited for a thread to take up its grant vs time
#: that thread spent serving it (reply sent).  The split tells a
#: backlog (queue wait grows) from a slow handler (service time grows).
_QWAIT = TELEMETRY.metrics.histogram("host.queue_wait_s")
_SERVICE = TELEMETRY.metrics.histogram("host.service_s")

#: How long the sentry keeps polling after the last read role was held
#: through an op, so the next arm of a busy stream needs no notify.
_SENTRY_WARM_S = 0.05

#: ``.lead``: the read role this thread holds through the inline op it
#: is running (see :meth:`EventLoopServer.claim_lead`).
_HOLDER = threading.local()


def serve_one(channel, chan: int, handler, rid: int,
              fields: dict[str, Any], payload: bytes,
              deadline: Deadline, tc) -> None:
    """Serve one inbound request and send its reply.

    A handler raising *any* exception — ``BaseException`` included —
    still produces an error reply: a teardown-grade failure
    (``SystemExit`` from a dying sentinel, say) must never leave the
    peer's reply future unresolved.
    """
    op = str(fields.get("cmd") or fields.get("op") or "?")
    span = collector = None
    if tc is not None and isinstance(tc, (list, tuple)) and len(tc) == 2:
        # This request is traced: serve it under a dispatch span
        # parented on the sender's frame span, and (in sentinel
        # children) capture everything it causes for the reply.
        if TELEMETRY.piggyback:
            collector = TELEMETRY.start_collect()
        span = TELEMETRY.begin(f"dispatch.{op}", trace=str(tc[0]),
                               parent=str(tc[1]), push=True)
    if deadline.expired():
        # The caller has already given up (and withdrawn the rid);
        # answer with the typed expiry rather than doing work nobody
        # is waiting for.
        out_fields, out_payload = control.error_fields(
            DeadlineExceededError(
                f"{op!r}: deadline expired before execution")), b""
    else:
        remaining_ms = deadline.to_ms()
        if remaining_ms is not None:
            # Nested exchanges (e.g. a dispatcher's bridge calls)
            # inherit what is left of the caller's budget.
            fields["dl"] = remaining_ms
        try:
            out_fields, out_payload = handler(fields, payload)
        except BaseException as exc:
            out_fields, out_payload = control.error_fields(exc), b""
    if span is not None:
        TELEMETRY.finish(
            span, status="ok" if out_fields.get("ok", True) else "error")
        if collector is not None:
            out_fields["tsp"] = TELEMETRY.end_collect(
                collector, anchor_us=span.start_us)
    channel.counters.request_served(op)
    try:
        channel._send_reply(rid, chan, out_fields, out_payload)
    except (ChannelClosedError, OSError, ValueError):
        pass  # peer is gone; nothing left to answer to


def latency_split_stats() -> dict[str, float]:
    """Queue-wait vs service-time split of every op this host served.

    Fed by the two global histograms the loop observes around each
    scheduling grant; surfaced through the ``ping`` reply so clients
    (and ``BENCH_swarm.json``) can attribute end-to-end latency to
    waiting vs working.
    """
    out: dict[str, float] = {}
    for label, hist in (("queue_wait", _QWAIT), ("service", _SERVICE)):
        count = hist.count
        out[f"{label}_ops"] = count
        out[f"{label}_mean_us"] = (hist.total / count * 1e6) if count else 0.0
        out[f"{label}_p50_us"] = hist.percentile(0.5) * 1e6
        out[f"{label}_p95_us"] = hist.percentile(0.95) * 1e6
    return out


class TimerHandle:
    """A cancellable one-shot timer on the loop's timer wheel.

    API-compatible with the ``threading.Timer`` objects the host pool's
    idle reapers used to be, minus the thread per timer.
    """

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., Any], args: tuple) -> None:
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _ChanState:
    """One registered channel's serving state on the loop.

    :class:`~repro.core.channel.Channel` routes inbound requests to
    :meth:`submit` and tears serving down with :meth:`stop`.
    """

    __slots__ = ("server", "channel", "chan", "handler", "session", "fifo",
                 "scheduled", "detached")

    def __init__(self, server: "EventLoopServer", channel, chan: int,
                 handler) -> None:
        self.server = server
        self.channel = channel
        self.chan = chan
        self.handler = handler
        #: A session channel is served in order and admission-controlled;
        #: channel 0 serves each request on a grant of its own and is
        #: exempt, so ``open``, ``ping`` and bridge traffic are never
        #: load-shed.
        self.session = chan != control.CONTROL_CHAN
        self.fifo: deque = deque()
        #: True while a session channel is granted: queued on the ready
        #: queue or running on a pool thread.  Only one grant exists at
        #: a time, which is what keeps the channel serial.
        self.scheduled = False
        self.detached = False

    def submit(self, rid: int, fields: dict[str, Any], payload: bytes,
               lead: "Callable[[], bool] | None" = None
               ) -> "_ChanState | None":
        return self.server.submit(self, rid, fields, payload, lead)

    def run(self, lead: Callable[[], bool]) -> bool:
        """Serve the request :meth:`submit` granted to the reading
        thread; True if the thread still holds its read role *lead*
        afterwards, False if the role went to a pool thread meanwhile
        (see :meth:`EventLoopServer._run_one`)."""
        return self.server._run_one(self, lead)

    def stop(self) -> None:
        # Detaching is O(1) and never joins: kill() may run from a
        # handler currently executing on this very state.
        self.server.detach(self)


class EventLoopServer:
    """A pool of interchangeable threads serving every channel of a process.

    A pool thread at any moment reads one connection (holding its read
    role), runs one granted request, runs one fired timer callback, or
    parks idle.  The pool holds ``executors`` threads plus one per
    connection whose read role it carries, so reading never eats into
    the threads that run requests.  Threads start lazily: a process
    that never serves a channel (a pure client) starts none.
    """

    def __init__(self, name: str = "af-loop", *,
                 executors: int | None = None,
                 max_inflight: int | None = None,
                 queue_depth: int | None = None,
                 intake_high: int | None = None,
                 intake_low: int | None = None) -> None:
        self.name = name
        self.executors = executors if executors is not None \
            else policy.HOST_EXECUTOR_THREADS
        self.max_inflight = max_inflight if max_inflight is not None \
            else policy.HOST_MAX_INFLIGHT
        self.queue_depth = queue_depth if queue_depth is not None \
            else policy.HOST_QUEUE_DEPTH
        self.intake_high = intake_high if intake_high is not None \
            else min(policy.HOST_INTAKE_HIGH, self.max_inflight)
        self.intake_low = intake_low if intake_low is not None \
            else min(policy.HOST_INTAKE_LOW, max(0, self.intake_high - 1))
        self._lock = threading.Lock()
        #: Idle pool threads park here; :meth:`_wake_locked` wakes one.
        self._work = threading.Condition(self._lock)
        #: Throttled readers park here until the backlog drains.
        self._drained = threading.Condition(self._lock)
        #: The timer thread parks here until the next timer is due.
        self._tick = threading.Condition(self._lock)
        #: Granted channels awaiting a pool thread, in round-robin order.
        self._ready: deque[_ChanState] = deque()
        #: Read roles to take up and fired timer callbacks; each task
        #: returns True when the connection it read has ended.
        self._tasks: deque[Callable[[], bool]] = deque()
        self._timers: list[tuple[float, int, TimerHandle]] = []
        self._timer_seq = itertools.count()
        self._timer_thread: threading.Thread | None = None
        #: Read roles held through an inline op: lead -> when the op
        #: started.  The sentry hands on any held past LEAD_GRACE_S.
        self._armed: dict[Callable[[], bool], float] = {}
        self._last_arm = 0.0       # when the latest role was armed
        self._sentry_hot = False   # the timer thread is polling _armed
        self._thread_seq = itertools.count()
        self._threads = 0    # live pool threads
        self._idle = 0       # pool threads parked and not yet woken
        self._readers = 0    # connections whose read role the pool carries
        self._throttled = 0  # readers parked in throttle()
        self._stopping = False
        self._channels = 0   # attached states
        self._queued = 0     # admitted requests waiting in a FIFO
        self._inflight = 0   # admitted requests not yet replied to
        self._rejects = 0
        self._stalls = 0
        TELEMETRY.register_collector("host", name, self,
                                     EventLoopServer.stats)

    # -- registration --------------------------------------------------------

    def attach(self, channel, chan: int, handler) -> _ChanState:
        """Serve *chan* of *channel* on this loop; returns the state."""
        state = _ChanState(self, channel, int(chan), handler)
        with self._lock:
            self._channels += 1
        return state

    def detach(self, state: _ChanState) -> None:
        """Stop serving *state*: queued (unstarted) requests are dropped.

        The requester's futures are not left hanging — a detach only
        happens on unregister/kill, where the channel itself fails
        every outstanding future.
        """
        with self._lock:
            if state.detached:
                return
            state.detached = True
            dropped = len(state.fifo)
            state.fifo.clear()
            self._queued -= dropped
            self._inflight -= dropped
            self._channels -= 1
            if dropped and self._throttled:
                self._drained.notify_all()

    def add_reader(self, lead: Callable[[], bool]) -> None:
        """Carry one connection's read role on the pool.

        *lead* reads and dispatches the connection's frames, running
        requests inline as :meth:`submit` grants them; it returns False
        once the role went to another pool thread during such an op,
        True once the connection has ended.  The pool grows by one
        thread per carried connection and shrinks back when it ends;
        the timer thread starts here too, as the read-role sentry.
        """
        with self._lock:
            if self._stopping:
                return
            self._start_timer_locked()
            self._readers += 1
            self._tasks.append(lead)
            self._wake_locked()

    # -- submission (called on the reading thread) ---------------------------

    def submit(self, state: _ChanState, rid: int, fields: dict[str, Any],
               payload: bytes, lead: "Callable[[], bool] | None" = None
               ) -> _ChanState | None:
        """Admit one request; returns *state* iff the caller must run it.

        *lead* is passed by a thread holding a connection's read role:
        it is the role itself.  When the request may run to completion
        on the reading thread (its channel is idle and nothing else is
        admitted), the caller must call ``state.run(lead)``, which
        keeps the role through a short op and hands it to the pool
        only when the op needs that (see :meth:`_run_one`).
        """
        # Re-anchor the sender's remaining budget (``dl``, milliseconds)
        # on the local monotonic clock at intake time; the queue wait
        # counts against it.  The trace context (``tc``) rides the same
        # way: popped here, re-parented at serve time.
        try:
            deadline = Deadline.from_ms(fields.pop("dl", None))
        except (TypeError, ValueError, OverflowError) as exc:
            # A malformed budget fails this request, never the reader.
            self._reply_error(state, rid, ProtocolError(
                f"malformed deadline budget: {exc}"))
            return None
        tc = fields.pop("tc", None)
        reject = None
        inline = None
        with self._lock:
            if state.detached or self._stopping:
                return None  # channel is tearing down; kill() fails the peer
            if state.session and (self._inflight >= self.max_inflight
                                   or len(state.fifo) >= self.queue_depth):
                reject = HostOverloadedError(
                    f"host overloaded: {self._inflight} in flight "
                    f"(max {self.max_inflight}), channel backlog "
                    f"{len(state.fifo)}/{self.queue_depth}")
                self._rejects += 1
            else:
                state.fifo.append((rid, fields, payload, deadline, tc,
                                   time.monotonic()))
                self._queued += 1
                self._inflight += 1
                if not state.scheduled:
                    # A session holds one grant at a time; channel 0
                    # takes a grant for every request and so never
                    # counts as scheduled.
                    state.scheduled = state.session
                    if lead is not None and self._inflight == 1:
                        inline = state  # run to completion (see run())
                    else:
                        self._ready.append(state)
                        self._wake_locked()
        if reject is not None:
            # Fast-reject straight from the reading thread: an
            # overloaded host sheds load without queueing it first.
            # The reply may overtake queued siblings on the wire; rid
            # matching makes that harmless.
            self._reply_error(state, rid, reject)
        return inline

    @staticmethod
    def _reply_error(state: _ChanState, rid: int, exc: Exception) -> None:
        """Answer *rid* with *exc* from the reading thread, unqueued."""
        try:
            state.channel._send_reply(rid, state.chan,
                                      control.error_fields(exc), b"")
        except (ChannelClosedError, OSError, ValueError):
            pass

    def throttle(self, channel) -> None:
        """Backpressure hook for the thread holding a read role.

        Called after each dispatched frame; blocks while the admitted
        backlog sits above the intake high-water mark, so the kernel
        pipe (not this process's memory) absorbs a flood.  Never stalls
        a connection with in-flight *outbound* requests: their replies
        are resolved by this very reader, and stalling it would
        deadlock any handler awaiting a bridge reply.
        """
        if self._queued < self.intake_high or channel.dead:
            return
        self._stalls += 1
        with self._lock:
            self._throttled += 1
            try:
                while (self._queued > self.intake_low
                       and not channel.dead and not self._stopping
                       and channel.counters.in_flight == 0):
                    self._drained.wait(policy.SCHED_TICK_S)
            finally:
                self._throttled -= 1

    # -- timer wheel ---------------------------------------------------------

    def call_later(self, delay: float, fn: Callable[..., Any],
                   *args: Any) -> TimerHandle:
        """Run ``fn(*args)`` after *delay* seconds; returns a handle.

        One wheel replaces the thread-per-timer ``threading.Timer``
        idiom; callbacks run on the pool (they may block — the host
        pool's reaper waits on child exit), never on the timer thread.
        """
        handle = TimerHandle(fn, args)
        when = time.monotonic() + max(0.0, float(delay))
        with self._lock:
            self._start_timer_locked()
            heapq.heappush(self._timers, (when, next(self._timer_seq),
                                          handle))
            self._tick.notify()
        return handle

    def release_lead(self, lead: Callable[[], bool]) -> None:
        """Hand read role *lead* to the pool now if it is held through
        an op.

        Called by a thread about to wait on a reply over the role's
        connection while another thread holds the role: only the holder
        can read the reply, so the waiter must not wait out the grace
        period first.
        """
        if lead in self._armed:  # lock-free peek; re-checked below
            with self._lock:
                if self._armed.pop(lead, None) is not None:
                    self._hand_off_locked(lead)

    def claim_lead(self, lead: Callable[[], bool]) -> bool:
        """Take read role *lead* back from the sentry; True iff this
        thread holds it through the op it is running.

        The op may then read the role's connection itself — requests it
        reads go to the pool — until it calls :meth:`rearm_lead`.  The
        sentry cannot hand the role on meanwhile, and need not: intake
        keeps flowing while the holder reads.
        """
        if getattr(_HOLDER, "lead", None) != lead:
            return False
        with self._lock:
            return self._armed.pop(lead, None) is not None

    def rearm_lead(self, lead: Callable[[], bool]) -> None:
        """Hold *lead* through the rest of the op again, with a fresh
        grace period (undoes :meth:`claim_lead`)."""
        with self._lock:
            self._arm_locked(lead, time.monotonic())

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The ``host.*`` gauge family (also the telemetry collector)."""
        with self._lock:
            return dict(zip(HOST_STAT_KEYS, (
                self._channels, self._queued, self._inflight,
                self._rejects, self._stalls,
                max(0, self._threads - self._readers),
                sum(1 for _, _, h in self._timers if not h.cancelled))))

    def shutdown(self) -> None:
        """Stop the loop's threads (used by tests owning a private loop)."""
        with self._lock:
            self._stopping = True
            self._work.notify_all()
            self._drained.notify_all()
            self._tick.notify_all()

    # -- internals -----------------------------------------------------------

    def _wake_locked(self) -> None:
        """Get one pool thread onto newly queued work.

        The waker, not the woken thread, takes the thread off the idle
        count, so two wakes in a row never count on the same thread.
        """
        if self._idle:
            self._idle -= 1
            self._work.notify()
        elif (self._threads < self.executors + self._readers
              and not self._stopping):
            self._threads += 1
            threading.Thread(
                target=self._worker,
                name=f"{self.name}-{next(self._thread_seq)}",
                daemon=True).start()

    def _arm_locked(self, lead: Callable[[], bool], now: float) -> None:
        """Record read role *lead* as held through an op since *now*."""
        self._armed[lead] = now
        self._last_arm = now
        if not self._sentry_hot:
            self._sentry_hot = True
            self._tick.notify()  # first arm of a burst

    def _hand_off_locked(self, lead: Callable[[], bool]) -> None:
        """Put read role *lead* first in line for a pool thread."""
        self._tasks.appendleft(lead)
        self._wake_locked()

    def _start_timer_locked(self) -> None:
        if self._timer_thread is None and not self._stopping:
            self._timer_thread = threading.Thread(
                target=self._timer_loop, name=f"{self.name}-timer",
                daemon=True)
            self._timer_thread.start()

    def _worker(self) -> None:
        while True:
            task = state = None
            with self._lock:
                while True:
                    if self._stopping:
                        self._threads -= 1
                        return
                    if self._tasks:
                        task = self._tasks.popleft()
                        break
                    if self._ready:
                        state = self._ready.popleft()
                        break
                    self._idle += 1
                    self._work.wait()
            if state is not None:
                self._run_one(state)
            elif task():
                # The connection this thread was reading has ended: the
                # pool gives back the thread it grew for it.
                with self._lock:
                    self._readers -= 1
                    if self._threads > self.executors + self._readers:
                        self._threads -= 1
                        return

    def _timer_loop(self) -> None:
        """Fire due timers, and hand on read roles held too long.

        As the read-role sentry, the loop moves any role armed for
        LEAD_GRACE_S or longer to the head of the task queue.  While a
        role is armed, or was within the last ``_SENTRY_WARM_S``, it
        waits at most LEAD_GRACE_S, so the arms of a busy stream of
        ops never need to wake it; a cold sentry is woken once, by the
        first arm of a burst.
        """
        grace = policy.LEAD_GRACE_S
        with self._lock:
            while not self._stopping:
                now = time.monotonic()
                while self._timers and (self._timers[0][2].cancelled
                                        or self._timers[0][0] <= now):
                    _, _, handle = heapq.heappop(self._timers)
                    if not handle.cancelled:
                        self._tasks.append(
                            functools.partial(self._fire, handle))
                        self._wake_locked()
                timeout = self._timers[0][0] - now if self._timers \
                    else None
                poll = None
                for lead, since in list(self._armed.items()):
                    if now - since >= grace:
                        del self._armed[lead]
                        self._hand_off_locked(lead)
                    elif poll is None or since + grace - now < poll:
                        poll = since + grace - now
                if poll is None and now - self._last_arm < _SENTRY_WARM_S:
                    poll = grace
                self._sentry_hot = poll is not None
                if poll is not None and (timeout is None or poll < timeout):
                    timeout = poll
                self._tick.wait(timeout)

    @staticmethod
    def _fire(handle: TimerHandle) -> bool:
        if not handle.cancelled:
            try:
                handle.fn(*handle.args)
            except Exception:
                pass  # a timer callback must not kill the pool
        return False

    @staticmethod
    def _sched_faults(state: _ChanState, plane, fields: dict[str, Any]
                      ) -> None:
        rule = plane.on_sched(fields)
        if rule is None:
            return
        if rule.action == "delay":
            time.sleep(rule.seconds)
        elif rule.action == "kill":
            kill = getattr(state.channel, "fault_kill", None)
            if kill is not None:
                kill()

    def _run_one(self, state: _ChanState,
                 lead: "Callable[[], bool] | None" = None) -> bool:
        """Serve exactly one queued request of *state*, then requeue a
        session with more queued.

        With *lead* (a read role) the request runs on the thread that
        read it, which keeps the role through the op: the role is
        *armed* (recorded with the op's start time) and the sentry
        (:meth:`_timer_loop`) hands it to the pool if the op outlives
        LEAD_GRACE_S.  An op that waits on a reply over the connection
        reads it itself (:meth:`claim_lead`).  Returns True iff the role
        is still held, so the caller goes straight back to reading.

        Every grant passes the fault plane's ``sched`` point (delay
        stalls the grant, kill crashes the armed process) once the role
        is armed and the request popped, which share one lock section.
        Queue wait ends, and service starts, when a thread takes up the
        grant.

        Popping a single item per grant (and re-appending the state to
        the ready *tail*) is the round-robin fairness property: a
        channel with a deep backlog re-competes after every op.  A
        requeued state needs a wake-up only when the calling thread
        kept a read role (it read more requests for the channel while
        waiting on a reply); otherwise that thread goes back to the
        pool and picks the state up itself.  Channel 0 is never
        requeued: each of its requests was granted on arrival, and a
        grant finding the FIFO emptied by :meth:`detach` serves nothing.
        """
        started = time.monotonic()
        with self._lock:
            if lead is not None:
                self._arm_locked(lead, started)
            if not state.fifo or state.detached:
                state.scheduled = False
                return self._armed.pop(lead, None) is not None
            item = state.fifo.popleft()
            self._queued -= 1
            if self._throttled and self._queued <= self.intake_low:
                self._drained.notify_all()  # release a throttled reader
        rid, fields, payload, deadline, tc, submitted = item
        plane = getattr(state.channel, "faults", None)
        if plane is not None:
            self._sched_faults(state, plane, fields)
        _QWAIT.observe(started - submitted)
        _HOLDER.lead = lead
        try:
            serve_one(state.channel, state.chan, state.handler,
                      rid, fields, payload, deadline, tc)
        except BaseException:
            self.release_lead(lead)  # never strand the read role
            raise
        finally:
            _HOLDER.lead = None
            _SERVICE.observe(time.monotonic() - started)
            with self._lock:
                # The op counts as in flight, and the role stays armed,
                # until the reply is written: a write blocked on a full
                # pipe must neither stall intake nor let another op run
                # inline while this thread is tied up.
                self._inflight -= 1
                held = self._armed.pop(lead, None) is not None
                if not state.session:
                    pass  # this grant was the request's own
                elif state.fifo and not state.detached:
                    self._ready.append(state)
                    if held:
                        self._wake_locked()
                else:
                    state.scheduled = False
        return held


_SHARED: EventLoopServer | None = None
_SHARED_LOCK = threading.Lock()


def shared_loop() -> EventLoopServer:
    """The process-wide loop server (created on first use).

    Shared across every channel of the process — a thousand registered
    channels still cost one thread pool, which is the whole
    O(1)-threads claim.
    """
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is None:
            _SHARED = EventLoopServer()
        return _SHARED


def serving_stats(channel) -> dict[str, Any] | None:
    """The ``host.*`` stats of the loop serving *channel* (None if
    the channel serves no requests)."""
    server = getattr(channel, "serve_loop", None)
    if server is None:
        return None
    return server.stats()
