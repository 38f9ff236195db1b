"""The simulated network fabric.

:class:`Network` binds :class:`~repro.net.service.Service` instances to
:class:`~repro.net.address.Address` endpoints and routes request/response
exchanges between them and clients.  Every exchange is charged a
transport cost — one-way latency plus size over bandwidth, both ways —
against a pluggable clock:

* :class:`AccountingClock` (default) only *accumulates* virtual
  microseconds, so tests and benchmarks measure communication cost
  without sleeping;
* :class:`WallClock` actually sleeps, for demos that want to feel like a
  real 100 Mbps link.

The default :class:`LinkProfile` models the paper's testbed: 100 Mbps
Fast Ethernet between 300 MHz Pentium II machines, with a round-trip
small-message latency in the low hundreds of microseconds.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

from repro.core.policy import Deadline
from repro.core.telemetry import TELEMETRY
from repro.errors import AddressError, NetworkError
from repro.net.address import Address
from repro.net.message import Connection, Request, Response, failed_call

__all__ = [
    "LinkProfile",
    "AccountingClock",
    "WallClock",
    "NetworkStats",
    "Network",
    "Connection",
]

#: Distinguishes "not partitioned" from "partitioned until healed (None)".
_MISSING = object()


@dataclass(frozen=True)
class LinkProfile:
    """Transport cost parameters for one link.

    ``latency_us`` is the one-way message latency (protocol stack +
    wire); ``bandwidth_mbps`` converts payload size into serialization
    delay.  The defaults approximate the paper's Fast Ethernet testbed.
    """

    latency_us: float = 55.0
    bandwidth_mbps: float = 100.0

    def transfer_us(self, nbytes: int) -> float:
        """One-way cost in microseconds of moving *nbytes*."""
        serialization = (nbytes * 8.0) / self.bandwidth_mbps  # µs: bits / (bits/µs)
        return self.latency_us + serialization


class AccountingClock:
    """A clock that accumulates charged time without sleeping."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._now_us = 0.0

    def charge(self, microseconds: float) -> None:
        if microseconds < 0:
            raise ValueError("cannot charge negative time")
        with self._lock:
            self._now_us += microseconds

    def now_us(self) -> float:
        with self._lock:
            return self._now_us


class WallClock:
    """A clock that really sleeps for each charge (demo mode)."""

    def charge(self, microseconds: float) -> None:
        if microseconds > 0:
            time.sleep(microseconds / 1e6)

    def now_us(self) -> float:
        return time.monotonic() * 1e6


@dataclass
class NetworkStats:
    """Aggregate traffic counters for a :class:`Network`."""

    requests: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    charged_us: float = 0.0
    per_service: dict[str, int] = field(default_factory=dict)
    #: Failure-plane counters: partitions cut, links healed, and calls
    #: dropped because the destination was partitioned at the time.
    partitions: int = 0
    heals: int = 0
    partition_drops: int = 0

    def record(self, address: Address, request_bytes: int,
               response_bytes: int, charged_us: float) -> None:
        self.requests += 1
        self.bytes_sent += request_bytes
        self.bytes_received += response_bytes
        self.charged_us += charged_us
        key = str(address)
        self.per_service[key] = self.per_service.get(key, 0) + 1


class Network:
    """An in-process network connecting clients to bound services."""

    def __init__(self, profile: LinkProfile | None = None,
                 clock: AccountingClock | WallClock | None = None) -> None:
        self.profile = profile or LinkProfile()
        self.clock = clock if clock is not None else AccountingClock()
        self.stats = NetworkStats()
        # Re-home the traffic counters under telemetry.snapshot()
        # (weakly — the entry dies with this Network).
        TELEMETRY.register_collector("network", "network", self.stats, asdict)
        self._services: dict[Address, "_Binding"] = {}
        self._links: dict[Address, LinkProfile] = {}
        self._lock = threading.Lock()
        #: address -> monotonic expiry (``None`` = until healed by hand).
        self._partitioned: dict[Address, float | None] = {}
        #: Optional :class:`~repro.core.faults.FaultPlane` consulted on
        #: every call (set via ``plane.arm_network(network)``).
        self.faults = None

    # -- topology ----------------------------------------------------------

    def bind(self, address: Address, service, profile: LinkProfile | None = None):
        """Attach *service* at *address*; returns the service for chaining."""
        with self._lock:
            if address in self._services:
                raise AddressError(f"address already bound: {address}")
            self._services[address] = _Binding(service, threading.Lock())
            if profile is not None:
                self._links[address] = profile
        setattr(service, "address", address)
        setattr(service, "network", self)
        return service

    def unbind(self, address: Address) -> None:
        with self._lock:
            if address not in self._services:
                raise AddressError(f"address not bound: {address}")
            del self._services[address]
            self._links.pop(address, None)
            self._partitioned.pop(address, None)

    def addresses(self) -> list[Address]:
        with self._lock:
            return sorted(self._services)

    # -- failure injection --------------------------------------------------

    def partition(self, address: Address,
                  duration: float | None = None) -> None:
        """Cut the link to *address*; calls raise :class:`NetworkError`.

        With a *duration* (seconds of wall time) the partition heals
        itself lazily: the first call after expiry goes through.
        Without one, the cut lasts until :meth:`heal`.
        """
        expiry = None if duration is None \
            else time.monotonic() + float(duration)
        with self._lock:
            self._partitioned[address] = expiry
            self.stats.partitions += 1

    def heal(self, address: Address) -> None:
        """Restore the link to *address* (idempotent)."""
        with self._lock:
            if self._partitioned.pop(address, _MISSING) is not _MISSING:
                self.stats.heals += 1

    def _is_partitioned_locked(self, address: Address) -> bool:
        """Partition check with lazy expiry of timed cuts (lock held)."""
        expiry = self._partitioned.get(address, _MISSING)
        if expiry is _MISSING:
            return False
        if expiry is not None and time.monotonic() >= expiry:
            del self._partitioned[address]
            self.stats.heals += 1
            return False
        return True

    # -- data path -----------------------------------------------------------

    def connect(self, address: Address) -> Connection:
        """Open a connection object to *address* (validates the binding)."""
        with self._lock:
            if address not in self._services:
                raise AddressError(f"no service at {address}")
        return Connection(self, address)

    def call(self, address: Address, request: Request, *,
             deadline: "Deadline | float | None" = None) -> Response:
        """One request/response exchange, with transport accounting.

        The service handler runs under a per-service lock, so services may
        be written single-threaded even though many sentinels (threads)
        can call in concurrently.  An expired *deadline* fails the call
        before any transport cost is charged.
        """
        if TELEMETRY.tracing and TELEMETRY.current() is not None:
            # The origin-exchange leg of a traced request's span tree.
            with TELEMETRY.span(f"net.{request.op}",
                                attrs={"address": str(address)}):
                return self._call(address, request, deadline=deadline)
        return self._call(address, request, deadline=deadline)

    def call_async(self, address: Address, request: Request, *,
                   deadline: "Deadline | float | None" = None
                   ) -> Callable[[], Response]:
        """:meth:`call`, returning a zero-argument resolver.  With no wire
        to pipeline on, the exchange runs at once; as over the bridge,
        every error is deferred to resolution."""
        try:
            response = self.call(address, request, deadline=deadline)
        except Exception as exc:
            return failed_call(exc)
        return lambda: response

    def _call(self, address: Address, request: Request, *,
              deadline: "Deadline | float | None" = None) -> Response:
        if deadline is not None:
            Deadline.coerce(deadline).check(
                f"network call {request.op!r} to {address}")
        plane = self.faults
        if plane is not None:
            rule = plane.on_network(address, request.op)
            if rule is not None:
                if rule.action == "fail":
                    raise NetworkError(
                        f"injected network fault: {request.op!r} to "
                        f"{address}")
                if rule.action == "delay":
                    self.clock.charge(rule.seconds * 1e6)
                elif rule.action == "partition":
                    self.partition(address, duration=rule.seconds or None)
        with self._lock:
            binding = self._services.get(address)
            partitioned = self._is_partitioned_locked(address)
            if partitioned:
                self.stats.partition_drops += 1
            profile = self._links.get(address, self.profile)
        if binding is None:
            raise AddressError(f"no service at {address}")
        if partitioned:
            raise NetworkError(f"network partition: {address} unreachable")

        request_bytes = request.wire_size()
        self.clock.charge(profile.transfer_us(request_bytes))
        with binding.lock:
            try:
                response = binding.service.handle(request)
            except NetworkError:
                raise
            except Exception as exc:  # service bug -> protocol failure
                response = Response.failure(f"{type(exc).__name__}: {exc}")
        response_bytes = response.wire_size()
        self.clock.charge(profile.transfer_us(response_bytes))

        charged = profile.transfer_us(request_bytes) + profile.transfer_us(response_bytes)
        with self._lock:
            self.stats.record(address, request_bytes, response_bytes, charged)
        return response


@dataclass
class _Binding:
    service: object
    lock: threading.Lock
