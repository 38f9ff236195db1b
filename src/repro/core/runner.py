"""The sentinel host child process (``python -m repro.core.runner``).

The process-based strategies really do run sentinels in a separate
operating-system process, as the paper's §4.1/§4.2 prescribe.  What
changed from the paper's one-process-per-open picture is the transport
economics: spawning a fresh interpreter for every ``open_active()`` and
giving every open its own pipe pair (plus a second pair for the network
bridge) does not scale to many concurrent opens.

This module therefore implements a pooled **sentinel host**:

* :func:`main` — the child side.  One child interpreter per container
  serves *many* concurrent opens.  Its stdin/stdout carry a single
  multiplexed :class:`~repro.core.channel.StreamChannel`; channel 0 is
  the host-control plane (``open``/``ping`` from the application,
  network-bridge calls from the sentinels), and every open lives on its
  own logical channel with its own dispatcher and its own
  freshly-loaded container state — exactly the isolation the per-open
  child gave, minus the per-open fork/exec.
* :class:`SentinelHost` / :class:`SentinelHostPool` — the parent side.
  The pool hands out refcounted :class:`HostLease` objects keyed by
  (container realpath, network); a host lingers briefly after its last
  lease closes so open/close churn reuses the warm child.

File-descriptor layout in the child:

====  =========================================================
fd    purpose
====  =========================================================
0     multiplexed channel, application -> host (framed)
1     multiplexed channel, host -> application (framed)
2     stderr (captured by the parent for crash diagnostics)
====  =========================================================
"""

from __future__ import annotations

import argparse
import atexit
import os
import sys
import threading
import time
from collections import deque
from typing import Any

from repro.core import control, hostloop, policy
from repro.core.channel import (
    CONTROL_CHAN,
    FIRST_SESSION_CHAN,
    Channel,
    StreamChannel,
)
from repro.core.container import Container
from repro.core.dispatch import SentinelDispatcher, StreamDispatcher
from repro.core.netproxy import NetworkBridgeServer, ProxyNetwork
from repro.core.policy import Deadline
from repro.core.sentinel import make_context
from repro.core.shm import AttachedSegment, ShmPlane
from repro.core.telemetry import TELEMETRY
from repro.errors import ProtocolError, SentinelCrashError

__all__ = [
    "main",
    "HostAgent",
    "SentinelHost",
    "SentinelHostPool",
    "HostLease",
    "HOST_POOL",
    "HOST_LINGER_S",
]

#: How long an idle host survives after its last lease closes
#: (re-exported from :mod:`repro.core.policy`, where timeouts live).
HOST_LINGER_S = policy.HOST_LINGER_S

#: Host-pool accounting: hosts spawned, hosts pooled right now, and
#: respawns of crashed hosts (also counted per container, in a scope
#: named by the container path).
_SPAWNED = TELEMETRY.metrics.counter("hosts.spawned")
_POOLED = TELEMETRY.metrics.gauge("hosts.pooled")
_RESPAWNS = TELEMETRY.metrics.counter("host.respawns")

_DISPATCHERS = {
    "process-control": SentinelDispatcher,
    "process": StreamDispatcher,
}


# ---------------------------------------------------------------------------
# Child side
# ---------------------------------------------------------------------------

class HostAgent:
    """Child-side channel-0 agent: turns ``open`` requests into sessions."""

    def __init__(self, channel: Channel, container_path: str,
                 use_network: bool) -> None:
        self.channel = channel
        self.container_path = container_path
        self.use_network = use_network
        self._lock = threading.Lock()
        self._next_chan = FIRST_SESSION_CHAN
        self._sessions: dict[int, Any] = {}
        #: The host's shared-memory segment, attached at the first
        #: ``open`` that advertises one (see :mod:`repro.core.shm`);
        #: until then it maps nothing and rejects every descriptor.
        self._segment = AttachedSegment()

    def handle(self, fields: dict[str, Any],
               payload: bytes) -> tuple[dict[str, Any], bytes]:
        cmd = fields.get("cmd", "")
        if cmd == "open":
            return self._open(str(fields.get("strategy", "")),
                              fields.get("shm")), b""
        if cmd == "ping":
            # A ping doubles as the host's introspection probe: thread
            # count (the O(1)-threads acceptance gauge) and the event
            # loop's ``host.*`` stats ride every pong.
            reply: dict[str, Any] = {
                "ok": True, "pid": os.getpid(),
                "sessions": len(self._sessions),
                "threads": threading.active_count(),
            }
            stats = hostloop.serving_stats(self.channel)
            if stats is not None:
                reply["host"] = stats
            # Queue-wait vs service-time split of everything this host
            # has served — the latency attribution BENCH_swarm.json
            # reports (waiting and working are different problems).
            reply["lat"] = hostloop.latency_split_stats()
            return reply, b""
        if cmd == "chaos":
            return self._chaos(fields), b""
        raise ProtocolError(f"unknown host command {cmd!r}")

    @staticmethod
    def _chaos(fields: dict[str, Any]) -> dict[str, Any]:
        """Execute one resource-fault op inside this host.

        ``action`` selects a resource fault (cpu-hog, memory-pressure,
        fd-exhaustion, disk-full — executed here, in the process the
        sessions actually run in) or the control verbs ``revert``,
        ``revert-all`` and ``status``.  Faults are clamped and
        watchdogged by :mod:`repro.core.resourcefaults`, so a host keeps
        its revert-within-bound guarantee even if the injecting parent
        dies right after this reply.
        """
        from repro.core import resourcefaults
        action = str(fields.get("action", ""))
        if action == "revert-all":
            return {"ok": True,
                    "reverted": resourcefaults.CONTROLLER.revert_all()}
        if action == "revert":
            done = resourcefaults.CONTROLLER.revert(
                int(fields.get("fault_id", 0)))
            return {"ok": True, "reverted": 1 if done else 0}
        if action == "status":
            return {"ok": True,
                    "active": resourcefaults.CONTROLLER.active()}
        info = resourcefaults.CONTROLLER.inject(
            action, fields.get("params") or {})
        return {"ok": True, **info}

    def _attach_shm(self, info: dict[str, Any]) -> bool:
        """Attach the advertised segment (idempotent); False = inline."""
        with self._lock:
            if self._segment.name:
                return self._segment.name == str(info.get("name"))
            try:
                self._segment = AttachedSegment.attach(
                    str(info["name"]), int(info["slots"]),
                    int(info["slot_bytes"]))
            except Exception:
                # Capability negotiation, not an error: the parent falls
                # back to inline payloads when the ack says no.
                return False
            return True

    def _open(self, strategy: str,
              shm_info: dict[str, Any] | None = None) -> dict[str, Any]:
        dispatcher_class = _DISPATCHERS.get(strategy)
        if dispatcher_class is None:
            raise ProtocolError(f"host cannot serve strategy {strategy!r}")
        shm_ok = bool(shm_info) and self._attach_shm(shm_info)
        # Each open re-loads the container so concurrent sessions keep the
        # independent data-part state per-open children used to have;
        # cross-open coordination stays on FileLock.  This
        # child serves every open of its container, so it IS the
        # container's consistency domain: each open joins the shared
        # CoherenceDomain (leases, write fences, single-flight fills,
        # pub/sub fan-out).
        container = Container.load(self.container_path)
        sentinel = container.spec.instantiate()
        network = ProxyNetwork(self.channel) if self.use_network else None
        ctx = make_context(container, network, strategy)
        dispatcher = dispatcher_class(sentinel, ctx)
        dispatcher.open()
        with self._lock:
            chan = self._next_chan
            self._next_chan += 1
            self._sessions[chan] = dispatcher
        self.channel.register(chan, self._session_handler(chan, dispatcher))
        # "chan" itself is an envelope key, so the session id travels
        # under its own name.
        return {"ok": True, "session_chan": chan, "strategy": strategy,
                "shm": shm_ok}

    def _session_handler(self, chan: int, dispatcher):
        def handle(fields: dict[str, Any],
                   payload: bytes) -> tuple[dict[str, Any], bytes]:
            out = self._segment.execute(dispatcher.execute, fields, payload)
            if fields.get("cmd") == "close":
                with self._lock:
                    self._sessions.pop(chan, None)
                self.channel.unregister(chan)
            return out
        return handle

    def close_all(self) -> None:
        """Flush sessions the application abandoned without a close."""
        with self._lock:
            leftovers = list(self._sessions.values())
            self._sessions.clear()
        for dispatcher in leftovers:
            try:
                dispatcher.close()
            except Exception:
                pass  # best-effort flush on the way out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro.core.runner")
    parser.add_argument("--container", required=True)
    parser.add_argument("--net", action="store_true",
                        help="expose the application's network over chan 0")
    args = parser.parse_args(argv)

    channel = StreamChannel(os.fdopen(0, "rb", buffering=0),
                            os.fdopen(1, "wb", buffering=0),
                            name="af-host-child")
    # A sentinel child has no local span consumer: everything it records
    # while serving a traced request ships back on the reply (``tsp``).
    # Tracing stays armed here — spans only materialize under a request
    # that actually carried a trace context (there is no current span
    # otherwise), so untraced traffic still pays just the one branch.
    TELEMETRY.piggyback = True
    TELEMETRY.tracing = True
    agent = HostAgent(channel, args.container, args.net)
    channel.register(CONTROL_CHAN, agent.handle)
    # The one connection the loop reads: requests arrive unbidden here.
    channel.start(serve=True)
    channel.wait_closed()  # parent closed the connection or died
    agent.close_all()
    return 0


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

def _enlarge_pipes(*pipes) -> None:
    """Grow each pipe to :data:`~repro.core.policy.BRIDGED_PIPE_BYTES`.

    A bridged host's window replies then fit the pipe whole, so the
    application's pool thread hands one over without blocking until the
    host drains it.  Where the platform lacks ``F_SETPIPE_SZ`` or the
    kernel refuses the size (an unprivileged process past
    ``pipe-max-size``), the pipe quietly keeps its default.
    """
    try:
        import fcntl  # parent side only
    except ImportError:
        return
    setsize = getattr(fcntl, "F_SETPIPE_SZ", None)
    if setsize is None:
        return
    for pipe in pipes:
        try:
            fcntl.fcntl(pipe.fileno(), setsize, policy.BRIDGED_PIPE_BYTES)
        except OSError:
            pass


class SentinelHost:
    """One pooled sentinel child, its channel, and its supervision.

    Supervision is two watchers per host:

    * a **process watcher** blocks in ``waitpid`` and kills the channel
      the instant the child dies, so in-flight futures fail with a typed
      :class:`SentinelCrashError` instead of hanging until a read
      notices EOF;
    * an **idle heartbeat** pings the child whenever the connection has
      been quiet for :data:`~repro.core.policy.HEARTBEAT_IDLE_S`, so a
      wedged-but-running child is detected even with no traffic.
    """

    def __init__(self, container_path: str, network=None,
                 faults=None) -> None:
        from subprocess import PIPE, Popen  # parent side only

        self.container_path = str(container_path)
        self.network = network
        argv = [sys.executable, "-m", "repro.core.runner",
                "--container", self.container_path]
        if network is not None:
            argv.append("--net")
        # The child must import this package even when the app has
        # chdir'd away from whatever a relative PYTHONPATH pointed at.
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.pathsep.join(
            [src_root] + [p for p in env.get("PYTHONPATH", "").split(
                os.pathsep) if p and p != src_root])
        # The bulk-data plane: one shared-memory slab per host, offered
        # to the child in the open handshake.  Creation failure (a host
        # without /dev/shm) just means every payload rides inline.
        self.shm: ShmPlane | None = None
        self.shm_ready = False
        try:
            self.shm = ShmPlane()
        except Exception:
            self.shm = None
        try:
            self.proc = Popen(argv, stdin=PIPE, stdout=PIPE, stderr=PIPE,
                              bufsize=0, env=env)
        except BaseException:
            self._destroy_shm()
            raise
        if network is not None:
            _enlarge_pipes(self.proc.stdin, self.proc.stdout)
        self.channel = StreamChannel(
            self.proc.stdout, self.proc.stdin,
            name=f"af-host:{os.path.basename(self.container_path)}")
        self.channel.crash_error_factory = self.crash_error
        self.channel.fault_kill = self.proc.kill
        if faults is not None:
            self.channel.faults = faults
        if network is not None:
            bridge = NetworkBridgeServer(network)
            self.channel.register(CONTROL_CHAN, bridge.handle)
        self.stderr_tail: deque = deque(maxlen=50)
        threading.Thread(target=self._drain_stderr, name="af-stderr-drain",
                         daemon=True).start()
        # Callers read their own replies (two cross-process wake-ups
        # per depth-1 op).  The child calls the bridge mostly while one
        # of them waits on it, so that caller reads the request too and
        # queues it to the loop's pool; the loop's sweep reads a frame
        # that arrives with no caller waiting (a write-behind flush).
        self.channel.start()
        threading.Thread(target=self._watch_proc, name="af-host-watch",
                         daemon=True).start()
        threading.Thread(target=self._heartbeat_loop, name="af-host-hb",
                         daemon=True).start()

    def _drain_stderr(self) -> None:
        with self.proc.stderr:  # closed at EOF: the child has exited
            for line in self.proc.stderr:
                self.stderr_tail.append(
                    line.decode("utf-8", errors="replace"))

    def stderr_text(self) -> str:
        return "".join(self.stderr_tail).strip()

    # -- supervision ---------------------------------------------------------

    def _watch_proc(self) -> None:
        """Fail the channel the moment the child process exits."""
        try:
            returncode = self.proc.wait()
        except Exception:  # pragma: no cover - interpreter teardown
            return
        if not self.channel.dead:
            self.mark_crashed(
                f"host process exited with code {returncode}")

    def _heartbeat_loop(self) -> None:
        """Probe an idle connection; a failed probe declares the host dead."""
        while not self.channel.wait_closed(policy.HEARTBEAT_IDLE_S):
            counters = self.channel.counters
            if counters.in_flight > 0:
                continue  # live traffic carries its own deadlines
            if time.monotonic() - counters.last_activity \
                    < policy.HEARTBEAT_IDLE_S:
                continue
            try:
                self.ping(timeout=policy.HEARTBEAT_TIMEOUT)
            except Exception as exc:
                self.mark_crashed(f"heartbeat failed: {exc}")
                return

    def mark_crashed(self, reason: str) -> None:
        """Declare the host dead: typed failure for every in-flight op.

        Idempotent, and complete even when the connection died first
        (a reader saw EOF before the watcher reaped the child).
        """
        if not self.channel.dead:
            self.channel.kill(reason, error=self.crash_error(reason))
        try:
            self.proc.kill()
        except Exception:
            pass
        # The segment dies with the host: a respawned child gets a fresh
        # slab, so journal replay (which re-sends inline) can never hand
        # it a descriptor from this incarnation.
        self._destroy_shm()

    def _destroy_shm(self) -> None:
        self.shm_ready = False
        plane = self.shm
        if plane is not None:
            plane.destroy()

    def crash_error(self, cause) -> SentinelCrashError:
        """Describe this host's death, folding in its captured stderr."""
        detail = self.stderr_text()
        message = f"sentinel host died: {cause}"
        if detail:
            message = f"{message}\n--- sentinel stderr ---\n{detail}"
        return SentinelCrashError(message)

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None and not self.channel.dead

    def open(self, strategy: str,
             timeout: "float | Deadline | None" = None) -> int:
        """Open one logical session; returns its channel id."""
        deadline = Deadline.coerce(timeout, policy.OPEN_TIMEOUT)
        request: dict[str, Any] = {"cmd": "open", "strategy": strategy}
        # The shared-memory segment is offered until the host answers
        # an open.  Its name is unlinked once the handshake is over:
        # the host attached by then or never will, and an attached
        # host matches a re-offer by name.
        plane = self.shm
        offer = plane is not None and not plane.destroyed \
            and not self.shm_ready
        if offer:
            request["shm"] = plane.handshake_fields()
        try:
            fields, _ = self.channel.request(CONTROL_CHAN, request,
                                             timeout=deadline)
        finally:
            if offer:
                plane.unlink()
        control.raise_for_response(fields)
        if offer:
            if fields.get("shm"):
                self.shm_ready = True
            else:
                self._destroy_shm()  # declined: every payload rides inline
        return int(fields["session_chan"])

    def ping(self, timeout: "float | Deadline | None" = None
             ) -> dict[str, Any]:
        deadline = Deadline.coerce(timeout, policy.HEARTBEAT_TIMEOUT)
        fields, _ = self.channel.request(CONTROL_CHAN, {"cmd": "ping"},
                                         timeout=deadline)
        control.raise_for_response(fields)
        return fields

    def inject_chaos(self, action: str,
                     params: dict[str, Any] | None = None,
                     timeout: "float | Deadline | None" = None
                     ) -> dict[str, Any]:
        """Run one resource-fault op inside this host's child process.

        *action* is a resource fault from
        :data:`~repro.core.resourcefaults.RESOURCE_ACTIONS` or one of
        the control verbs ``revert``/``revert-all``/``status``.  Typed
        failures (:class:`~repro.errors.ChaosError`,
        :class:`~repro.errors.ChaosSafetyError`) round-trip the wire.
        A real injection also increments the parent-side
        ``faults.injected.resource.<action>`` counter, so the process
        that *ordered* the chaos shows it in ``afctl stats`` too.
        """
        deadline = Deadline.coerce(timeout, policy.CHAOS_OP_TIMEOUT)
        request: dict[str, Any] = {"cmd": "chaos", "action": str(action)}
        if params:
            request["params"] = dict(params)
        fields, _ = self.channel.request(CONTROL_CHAN, request,
                                         timeout=deadline)
        control.raise_for_response(fields)
        if action not in ("revert", "revert-all", "status"):
            TELEMETRY.metrics.counter(
                f"faults.injected.resource.{action}").inc()
        return fields

    def shutdown(self) -> None:
        """Close the connection; the child exits on EOF."""
        self.channel.close()
        try:
            self.proc.wait(timeout=policy.SHUTDOWN_TIMEOUT)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=policy.SHUTDOWN_TIMEOUT)
        self._destroy_shm()


class HostLease:
    """One refcounted session on a pooled host.

    A lease remembers everything needed to re-establish itself on a
    fresh host (:meth:`respawn`), which is what lets the supervised
    session layer retry idempotent operations invisibly after a crash.
    ``supervised`` is consulted by that layer: containers carrying
    ``meta={"supervise": False}`` opt out of transparent recovery and
    surface every crash.
    """

    def __init__(self, pool: "SentinelHostPool", key,
                 host: SentinelHost, chan: int, strategy: str,
                 supervised: bool = True) -> None:
        self._pool = pool
        self._key = key
        self.host = host
        self.chan = chan
        self.strategy = strategy
        self.supervised = supervised
        self.released = False
        self.respawns = 0

    @property
    def channel(self) -> StreamChannel:
        return self.host.channel

    def request(self, fields: dict[str, Any], payload: bytes = b"",
                timeout: "float | Deadline | None" = None
                ) -> tuple[dict[str, Any], bytes]:
        """One pipelinable operation on this session's channel.

        A :class:`~repro.core.policy.Deadline` *timeout* (a supervised
        attempt's) is passed down to the send and the wait as is.
        """
        deadline = Deadline.coerce(timeout)
        return self.host.channel.request_async(
            self.chan, fields, payload, deadline).wait(deadline)

    def request_async(self, fields: dict[str, Any], payload: bytes = b""):
        return self.host.channel.request_async(self.chan, fields, payload)

    def crash_error(self, cause: BaseException) -> SentinelCrashError:
        """Describe a dead host, folding in its captured stderr."""
        return self.host.crash_error(f"mid-operation: {cause}")

    def respawn(self, deadline: "Deadline | float | None" = None) -> None:
        """Re-establish this session on a live host after a crash.

        The dead host is evicted; a replacement is pooled and a fresh
        logical session opened on it.  The caller replays whatever state
        the new sentinel instance must observe (see the session-layer
        write journal).
        """
        deadline = Deadline.coerce(deadline, policy.OPEN_TIMEOUT)
        host, chan = self._pool._respawn(
            self._key, self.host, self.host.container_path,
            self.host.network, self.strategy, deadline)
        self.host = host
        self.chan = chan
        self.respawns += 1
        # Durable respawn accounting: the global tally plus a
        # per-container scope, so `afctl doctor` can tell "one crash"
        # from "this container's host is in a respawn storm".
        _RESPAWNS.inc()
        TELEMETRY.metrics.counter("host.respawns",
                                  scope=host.container_path).inc()

    def release(self) -> None:
        """Return the session's slot to the pool."""
        if self.released:
            return
        self.released = True
        self._pool._release(self._key, self.host)


class SentinelHostPool:
    """Keyed pool of sentinel hosts: one child serves many opens.

    Hosts are keyed by (container realpath, bridged network) so every
    open of the same container shares one child process and one framed
    connection.  A host lingers :data:`HOST_LINGER_S` seconds after its
    last lease closes, letting open/close churn reuse the warm child
    instead of paying interpreter startup per open.
    """

    def __init__(self, linger: float = HOST_LINGER_S) -> None:
        self.linger = linger
        #: Optional :class:`~repro.core.faults.FaultPlane` armed on every
        #: host this pool spawns (including respawns after a crash).
        self.faults = None
        # Reentrant: leaked sessions are closed off the GC path (see
        # repro.util.finalize), but if a release ever re-enters on the
        # same thread anyway it must not deadlock on the pool lock.
        self._lock = threading.RLock()
        self._hosts: dict[Any, SentinelHost] = {}
        self._refs: dict[Any, int] = {}
        #: key -> pending idle-reap timer on the shared loop's timer wheel
        #: (one wheel for every lingering lease — a timer no longer
        #: costs a thread).
        self._reapers: dict[Any, hostloop.TimerHandle] = {}

    @staticmethod
    def _key(container_path: str, network) -> tuple:
        return (os.path.realpath(str(container_path)),
                id(network) if network is not None else None)

    def lease(self, container_path: str, *, strategy: str,
              network=None) -> HostLease:
        """Open one session on this pool's host for *container_path*.

        A caller that wants a host of its own leases from a private
        ``SentinelHostPool(linger=0)``: the host retires as soon as its
        last session closes.
        """
        key = self._key(container_path, network)
        host, reaper = self._checkout_locked(key, container_path, network)
        if reaper is not None:
            reaper.cancel()
        try:
            chan = host.open(strategy)
        except BaseException:
            self._release(key, host)
            raise
        return HostLease(self, key, host, chan, strategy)

    def _checkout_locked(self, key, container_path, network):
        """Take one ref on the live host at *key*, spawning if needed."""
        with self._lock:
            host = self._hosts.get(key)
            if host is not None and not host.alive:
                self._evict_locked(key)
                host = None
            if host is None:
                host = SentinelHost(container_path, network=network,
                                    faults=self.faults)
                self._hosts[key] = host
                self._refs[key] = 0
                _SPAWNED.inc()
            self._refs[key] += 1
            reaper = self._reapers.pop(key, None)
            _POOLED.set(len(self._hosts))
        return host, reaper

    def _respawn(self, key, dead_host: SentinelHost, container_path,
                 network, strategy: str, deadline):
        """Replace *dead_host* and open a fresh session for one lease.

        The dead host is evicted (wiping its ref accounting — every
        surviving lease re-registers via its own respawn, or detects the
        eviction at release time); the replacement is shared, so many
        leases crashing together converge on one new child.
        """
        with self._lock:
            if self._hosts.get(key) is dead_host:
                self._evict_locked(key)
        if not dead_host.alive:
            # No lease releases a dead host: finish it here, so its
            # segment goes before a successor's is made.
            dead_host.mark_crashed("replaced after a crash")
        host, reaper = self._checkout_locked(key, container_path, network)
        if reaper is not None:
            reaper.cancel()
        try:
            chan = host.open(strategy, timeout=deadline)
        except BaseException:
            self._release(key, host)
            raise
        return host, chan

    def _release(self, key, host: SentinelHost) -> None:
        with self._lock:
            if self._hosts.get(key) is not host:
                shutdown_now = True  # host was already evicted/replaced
            else:
                self._refs[key] -= 1
                shutdown_now = not host.alive and self._refs[key] <= 0
                if self._refs[key] <= 0 and not shutdown_now:
                    self._reapers[key] = hostloop.shared_loop().call_later(
                        self.linger, self._reap, key, host)
                if shutdown_now:
                    self._evict_locked(key)
        if shutdown_now:
            host.shutdown()

    def _reap(self, key, host: SentinelHost) -> None:
        with self._lock:
            if self._hosts.get(key) is not host or self._refs.get(key, 0) > 0:
                return
            self._evict_locked(key)
        host.shutdown()

    def _evict_locked(self, key) -> None:
        self._hosts.pop(key, None)
        self._refs.pop(key, None)
        reaper = self._reapers.pop(key, None)
        if reaper is not None:
            reaper.cancel()
        _POOLED.set(len(self._hosts))

    def shutdown_all(self) -> None:
        with self._lock:
            hosts = list(self._hosts.values())
            self._hosts.clear()
            self._refs.clear()
            for reaper in self._reapers.values():
                reaper.cancel()
            self._reapers.clear()
        for host in hosts:
            host.shutdown()


#: The process-wide host pool used by the strategies.
HOST_POOL = SentinelHostPool()
atexit.register(HOST_POOL.shutdown_all)


if __name__ == "__main__":
    sys.exit(main())
