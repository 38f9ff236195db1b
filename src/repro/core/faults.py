"""A deterministic fault-injection plane for the transport stack.

Recovery code that is only exercised by real crashes is untested code.
:class:`FaultPlane` makes failures *schedulable*: a seeded rule engine
that the framing layer (:class:`~repro.core.channel.StreamChannel`), the
sentinel host (:mod:`repro.core.runner`) and the simulated
:class:`~repro.net.Network` consult at well-defined injection points.
Given the same seed and the same workload, the same faults fire at the
same moments — chaos tests become reproducible regressions.

Injection points and the actions meaningful at each:

======== ==========================================================
point    actions
======== ==========================================================
send     ``drop`` (frame vanishes), ``delay`` (stall the writer),
         ``corrupt`` (peer sees an undecodable frame and dies),
         ``eof`` (truncated frame: connection dies mid-message),
         ``kill`` (hard-kill the host process — SIGKILL)
recv     ``drop`` (inbound message discarded after decode)
network  ``fail`` (exchange raises ``NetworkError``),
         ``delay`` (charge extra transfer time),
         ``partition`` (cut the address for ``seconds``)
service  ``fail`` (service returns a failure response)
shm      ``shm-corrupt`` (flip a staged byte after the CRC is taken),
         ``shm-stale-generation`` (bump the slot's generation word)
sched    ``delay`` (stall one event-loop scheduling grant),
         ``kill`` (hard-kill the host at a scheduling grant)
======== ==========================================================

Rules match on the message's command/op name (``op=``), an address
(``address=``, network point only), fire with probability ``p`` from the
seeded stream, skip the first ``after`` matching encounters, and stop
after ``times`` firings.  Every firing is appended to :attr:`fired`, so
a test can assert exactly which faults its run experienced.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.core.telemetry import TELEMETRY

__all__ = ["FaultPlane", "FaultRule", "rule_problem"]

#: Actions whose firing the send path must handle.
_SEND_ACTIONS = ("drop", "delay", "corrupt", "eof", "kill")
_RECV_ACTIONS = ("drop",)
_NETWORK_ACTIONS = ("fail", "delay", "partition")
_SERVICE_ACTIONS = ("fail",)
_SHM_ACTIONS = ("shm-corrupt", "shm-stale-generation")
_SCHED_ACTIONS = ("delay", "kill")

#: Ops whose shm slot is a reply's landing slot: it holds no staged
#: payload when the plane is consulted, so ``shm-corrupt`` has no byte
#: to flip there.
_REPLY_SLOT_OPS = ("read", "readv")

_POINTS = {
    "send": _SEND_ACTIONS,
    "recv": _RECV_ACTIONS,
    "network": _NETWORK_ACTIONS,
    "service": _SERVICE_ACTIONS,
    "shm": _SHM_ACTIONS,
    "sched": _SCHED_ACTIONS,
}


def rule_problem(point: str, action: str, op: Any) -> str | None:
    """Why a rule could never act as scheduled, or None if it can."""
    if point == "shm" and action == "shm-corrupt" and op in _REPLY_SLOT_OPS:
        return (f"shm-corrupt cannot match op {op!r}: its reply slot holds "
                "no staged payload to corrupt")
    return None


@dataclass
class FaultRule:
    """One scheduled fault: where, what, and when it fires."""

    point: str
    action: str
    op: str | None = None
    address: str | None = None
    p: float = 1.0
    after: int = 0
    times: int | None = None
    seconds: float = 0.0
    seen: int = 0
    fired: int = 0

    def exhausted(self) -> bool:
        return self.times is not None and self.fired >= self.times


@dataclass
class FaultEvent:
    """A record of one fault that actually fired."""

    point: str
    action: str
    op: str
    detail: dict[str, Any] = field(default_factory=dict)


class FaultPlane:
    """A seeded schedule of injected faults.

    One plane may be armed on several components at once; matching is
    serialized under a lock, so the probability stream stays
    deterministic even when hooks race.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._rules: list[FaultRule] = []
        #: Chronological log of fired faults (read-only for callers).
        self.fired: list[FaultEvent] = []
        # Re-home the fired-action histogram under telemetry.snapshot()
        # (weakly — the entry disappears with this plane).
        TELEMETRY.register_collector("faults", f"plane-seed-{seed}", self,
                                     FaultPlane.summary)

    # -- schedule construction ---------------------------------------------

    def rule(self, point: str, action: str, *, op: str | None = None,
             address: str | None = None, p: float = 1.0, after: int = 0,
             times: int | None = None, seconds: float = 0.0) -> "FaultPlane":
        """Add one rule; returns ``self`` for chaining."""
        if point not in _POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        if action not in _POINTS[point]:
            raise ValueError(f"action {action!r} is not valid at {point!r}")
        problem = rule_problem(point, action, op)
        if problem is not None:
            raise ValueError(problem)
        with self._lock:
            self._rules.append(FaultRule(
                point=point, action=action, op=op, address=address,
                p=float(p), after=int(after), times=times,
                seconds=float(seconds)))
        return self

    # Convenience constructors for the common schedules.

    def drop_frame(self, *, op: str | None = None, p: float = 1.0,
                   after: int = 0, times: int | None = None) -> "FaultPlane":
        """Outbound frames matching *op* silently vanish."""
        return self.rule("send", "drop", op=op, p=p, after=after, times=times)

    def kill_host(self, *, after: int = 0,
                  times: int | None = 1) -> "FaultPlane":
        """Hard-kill the armed host process after *after* requests."""
        return self.rule("send", "kill", after=after, times=times)

    def fail_network(self, *, address: str | None = None,
                     op: str | None = None, p: float = 1.0, after: int = 0,
                     times: int | None = None) -> "FaultPlane":
        return self.rule("network", "fail", op=op, address=address, p=p,
                         after=after, times=times)

    def partition(self, seconds: float, *, address: str | None = None,
                  after: int = 0, times: int | None = 1) -> "FaultPlane":
        """Cut the matched address for *seconds* on the armed network."""
        return self.rule("network", "partition", address=address,
                         after=after, times=times, seconds=seconds)

    def fail_service(self, *, op: str | None = None, p: float = 1.0,
                     after: int = 0, times: int | None = None) -> "FaultPlane":
        return self.rule("service", "fail", op=op, p=p, after=after,
                         times=times)

    def corrupt_shm_slot(self, *, op: str | None = None, after: int = 0,
                         times: int | None = 1) -> "FaultPlane":
        """Flip one byte of a staged shm payload post-checksum.

        The peer's CRC validation rejects the slot and the attempt
        retries inline — the operation still succeeds.  Only writes
        stage a payload: *op* ``read``/``readv`` is refused, and a rule
        without *op* passes over reply slots.
        """
        return self.rule("shm", "shm-corrupt", op=op, after=after,
                         times=times)

    def stale_shm_generation(self, *, op: str | None = None, after: int = 0,
                             times: int | None = 1) -> "FaultPlane":
        """Bump a leased slot's generation so its descriptor goes stale."""
        return self.rule("shm", "shm-stale-generation", op=op, after=after,
                         times=times)

    def delay_sched(self, seconds: float, *, op: str | None = None,
                    p: float = 1.0, after: int = 0,
                    times: int | None = None) -> "FaultPlane":
        """Stall one scheduling grant on the armed event-loop host."""
        return self.rule("sched", "delay", op=op, p=p, after=after,
                         times=times, seconds=seconds)

    # -- arming -------------------------------------------------------------

    def arm_channel(self, channel) -> "FaultPlane":
        """Consult this plane on *channel*'s send/recv paths."""
        channel.faults = self
        return self

    def arm_host(self, host) -> "FaultPlane":
        """Arm a :class:`~repro.core.runner.SentinelHost` connection."""
        return self.arm_channel(host.channel)

    def arm_network(self, network) -> "FaultPlane":
        """Consult this plane on every :meth:`Network.call`."""
        network.faults = self
        return self

    def arm_service(self, service) -> "FaultPlane":
        """Consult this plane in a :class:`~repro.net.service.Service`."""
        service.faults = self
        return self

    # -- hook surface (called by the transport) -----------------------------

    def on_send(self, fields: dict[str, Any]) -> FaultRule | None:
        op = str(fields.get("cmd") or fields.get("op") or "")
        return self._match("send", op)

    def on_recv(self, fields: dict[str, Any]) -> FaultRule | None:
        op = str(fields.get("cmd") or fields.get("op") or "")
        return self._match("recv", op)

    def on_network(self, address, op: str) -> FaultRule | None:
        return self._match("network", str(op), address=str(address))

    def on_service(self, op: str) -> FaultRule | None:
        return self._match("service", str(op))

    def on_shm(self, fields: dict[str, Any], *,
               staged: bool = True) -> FaultRule | None:
        """Consulted sender-side after a payload is *staged* in a slot,
        or a reply slot is offered.  An offered slot holds nothing to
        corrupt, so ``shm-corrupt`` rules pass over it: they count a
        firing only where they flip a byte."""
        op = str(fields.get("cmd") or fields.get("op") or "")
        return self._match("shm", op,
                           skip=None if staged else "shm-corrupt")

    def on_sched(self, fields: dict[str, Any]) -> FaultRule | None:
        """Consulted by the event loop before granting one channel a turn."""
        op = str(fields.get("cmd") or fields.get("op") or "")
        return self._match("sched", op)

    # -- matching -----------------------------------------------------------

    def _match(self, point: str, op: str, address: str | None = None,
               skip: str | None = None) -> FaultRule | None:
        with self._lock:
            for rule in self._rules:
                if rule.point != point or rule.exhausted() \
                        or rule.action == skip:
                    continue
                if rule.op is not None and rule.op != op:
                    continue
                if rule.address is not None and rule.address != address:
                    continue
                rule.seen += 1
                if rule.seen <= rule.after:
                    continue
                if rule.p < 1.0 and self._rng.random() >= rule.p:
                    continue
                rule.fired += 1
                detail: dict[str, Any] = {"seconds": rule.seconds}
                if address is not None:
                    detail["address"] = address
                self.fired.append(FaultEvent(point=point, action=rule.action,
                                             op=op, detail=detail))
                # Every firing leaves a durable counter behind — planes
                # are per-test objects, but faults.injected.* survives
                # them, so `afctl stats` shows chaos the process saw.
                TELEMETRY.metrics.counter(
                    f"faults.injected.{point}.{rule.action}").inc()
                return rule
        return None

    def summary(self) -> dict[str, int]:
        """Fired-action histogram, for assertions and reports."""
        out: dict[str, int] = {}
        with self._lock:
            for event in self.fired:
                key = f"{event.point}:{event.action}"
                out[key] = out.get(key, 0) + 1
        return out
