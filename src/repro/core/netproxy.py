"""Bridging the simulated network into sentinel child processes.

The process strategies run the sentinel in a real child interpreter, but
the simulated network (and every service bound to it) lives in the
application process.  This module keeps the paper's picture — the
sentinel "can directly access both the remote information source(s) and
the local file" — intact across that boundary by proxying network calls
over the *same* multiplexed channel that carries file operations:

* the application side attaches a :class:`NetworkBridgeServer` as the
  channel-0 handler of the sentinel-host connection, executing proxied
  calls against the real :class:`~repro.net.Network`;
* the child side sees a :class:`ProxyNetwork`, which exposes the same
  ``connect(address) -> connection`` surface sentinels already use, so a
  sentinel cannot tell which side of the boundary it runs on.

Historically the bridge burned a dedicated fd pair per open and
serialized calls behind a lock; now bridge traffic is ordinary
channel-0 request/reply traffic — tagged, pipelined, and counted like
everything else on the connection.  The application's serving loop
serves channel 0 per request (see :mod:`repro.core.hostloop`), so the
calls of one connection run at the same time, one pool thread each,
instead of in arrival order: a read-ahead window reaches the origin
while the window before it is still on the wire, and a write-behind
flush does not queue behind either.  Each call waits at most until the
deadline its caller sent along.

This mirrors reality: the "remote" sources genuinely are in a different
process from the sentinel.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.core import policy
from repro.core.channel import CONTROL_CHAN, Channel
from repro.core.policy import Deadline
from repro.core.telemetry import TELEMETRY
from repro.errors import (
    ChannelClosedError,
    DeadlineExceededError,
    NetworkError,
    wire_error_registry,
)
from repro.net.address import Address
from repro.net.message import Request, Response

__all__ = ["NetworkBridgeServer", "ProxyNetwork", "ProxyConnection",
           "BRIDGE_CHAN"]

#: Bridge traffic shares the connection-control channel.
BRIDGE_CHAN = CONTROL_CHAN

#: Exception classes a bridge transport failure may round-trip as.
_TRANSPORT_ERRORS: dict[str, type[Exception]] = {
    name: cls for name, cls in wire_error_registry().items()
    if issubclass(cls, (NetworkError, DeadlineExceededError))
}


class NetworkBridgeServer:
    """Application-side bridge endpoint: serves proxied network calls."""

    def __init__(self, network) -> None:
        self.network = network

    def handle(self, fields: dict[str, Any],
               payload: bytes) -> tuple[dict[str, Any], bytes]:
        """Serve one proxied network call (a channel-0 request handler).

        Calls share nothing but the network, and the serving loop runs
        each channel-0 request on its own pool thread: a second
        read-ahead window reaches the origin while the first is still
        on the wire.
        """
        address = Address(host=fields.get("host", ""),
                          port=int(fields.get("port", 0)),
                          scheme=fields.get("scheme", ""))
        request = Request(op=fields.get("op", ""),
                          fields=fields.get("fields") or {},
                          payload=payload)
        # The caller's remaining deadline budget crossed the bridge as a
        # relative millisecond count; re-anchor it on this side's clock.
        budget_ms = fields.get("dl")
        deadline = Deadline.from_ms(budget_ms) if budget_ms is not None \
            else None
        if TELEMETRY.tracing and TELEMETRY.current() is not None:
            # Name the child→application hop in the span tree: the
            # origin exchange below nests under this bridge leg.
            with TELEMETRY.span(f"bridge.{request.op}",
                                attrs={"address": str(address)}):
                response = self.network.call(address, request,
                                             deadline=deadline)
        else:
            response = self.network.call(address, request,
                                         deadline=deadline)
        return ({
            "ok": True,
            "resp_ok": response.ok,
            "resp_error": response.error,
            "resp_fields": response.fields,
        }, response.payload)


class ProxyConnection:
    """Child-side stand-in for :class:`repro.net.network.Connection`."""

    def __init__(self, proxy: "ProxyNetwork", address: Address) -> None:
        self._proxy = proxy
        self.address = address
        self._closed = False

    def call(self, op: str, payload: bytes = b"", *,
             deadline: "Deadline | float | None" = None,
             **fields) -> Response:
        if self._closed:
            raise NetworkError("connection is closed")
        return self._proxy.call(self.address,
                                Request(op=op, fields=dict(fields),
                                        payload=payload),
                                deadline=deadline)

    def call_async(self, op: str, payload: bytes = b"", *,
                   deadline: "Deadline | float | None" = None,
                   **fields) -> Callable[[], Response]:
        """Start one proxied call; returns a resolver for its response.

        The request is on the wire (pipelined on channel 0) when this
        returns; calling the resolver blocks for the reply, at most
        until *deadline*.  All errors — including issue-time transport
        failures — surface at resolution, so callers can issue a batch
        before touching any result.
        """
        if self._closed:
            raise NetworkError("connection is closed")
        return self._proxy.call_async(self.address,
                                      Request(op=op, fields=dict(fields),
                                              payload=payload),
                                      deadline=deadline)

    def expect(self, op: str, payload: bytes = b"", **fields) -> Response:
        response = self.call(op, payload, **fields)
        if not response.ok:
            raise NetworkError(f"{self.address} rejected {op!r}: {response.error}")
        return response

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "ProxyConnection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ProxyNetwork:
    """Child-side bridge endpoint with the Network ``connect``/``call`` surface.

    Calls ride channel 0 of the host connection as ordinary requests, so
    concurrent sentinels (or one sentinel with concurrent needs) can
    pipeline network calls rather than queueing behind a pipe lock, and
    the application end serves them at once: the next read-ahead window
    is already at the origin while the current one is consumed.
    """

    def __init__(self, channel: Channel) -> None:
        self._channel = channel

    def connect(self, address: Address) -> ProxyConnection:
        return ProxyConnection(self, address)

    def call(self, address: Address, request: Request, *,
             deadline: "Deadline | float | None" = None) -> Response:
        return self.call_async(address, request, deadline=deadline)()

    def call_async(self, address: Address, request: Request, *,
                   deadline: "Deadline | float | None" = None
                   ) -> Callable[[], Response]:
        """Put one bridge call on the wire; resolve it later.

        This is what lets the cache issue a prefetch window and keep
        serving the application: the request is in flight on channel 0
        while the resolver is still unclaimed.  Issue-time failures are
        captured and re-raised at resolution.  The remaining *deadline*
        budget travels with the request, so the application-side bridge
        endpoint inherits it instead of inventing its own timeout.
        """
        deadline = Deadline.coerce(deadline, policy.DEFAULT_OP_TIMEOUT)
        fields = {
            "cmd": "net",
            "host": address.host,
            "port": address.port,
            "scheme": address.scheme,
            "op": request.op,
            "fields": request.fields,
        }
        try:
            pending = self._channel.request_async(BRIDGE_CHAN, fields,
                                                  request.payload,
                                                  deadline=deadline)
        except ChannelClosedError as exc:
            error = NetworkError(f"network bridge is gone: {exc}")

            def failed() -> Response:
                raise error
            return failed

        def resolve() -> Response:
            try:
                reply, payload = pending.wait(deadline)
            except ChannelClosedError as exc:
                raise NetworkError(f"network bridge is gone: {exc}") from exc
            if not reply.get("ok", False):
                exc_class = _TRANSPORT_ERRORS.get(reply.get("error_type", ""),
                                                  NetworkError)
                raise exc_class(reply.get("error", "bridge transport failure"))
            return Response(ok=reply.get("resp_ok", False),
                            fields=reply.get("resp_fields") or {},
                            payload=payload,
                            error=reply.get("resp_error", ""))
        return resolve
