"""Request/response messages exchanged over the simulated network.

Messages are deliberately simple: an operation name, a dict of small
JSON-able fields, and an opaque bytes payload.  The split keeps byte
accounting honest — the fabric charges for ``len(payload)`` plus an
encoded-header estimate — and keeps every service protocol uniform.

:class:`Connection`, the client handle every network hands out, lives
here too: a sentinel host reaches the application's network through
the bridge without loading :mod:`repro.net.network`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

from repro.errors import NetworkError

if TYPE_CHECKING:
    from repro.core.policy import Deadline
    from repro.net.address import Address

__all__ = ["Request", "Response", "Connection", "encoded_size",
           "failed_call"]

#: Fixed per-message overhead charged by the fabric (framing, addressing),
#: loosely an Ethernet + IP + TCP header budget.
WIRE_HEADER_BYTES = 66


def encoded_size(fields: Mapping[str, Any], payload: bytes) -> int:
    """Approximate on-the-wire size of a message in bytes."""
    header = json.dumps(fields, separators=(",", ":"), sort_keys=True)
    return WIRE_HEADER_BYTES + len(header.encode("utf-8")) + len(payload)


@dataclass
class Request:
    """A client-to-service message."""

    op: str
    fields: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""
    #: Memoized :meth:`wire_size` — the fabric asks for it at several
    #: charge points per exchange and messages are not mutated after
    #: construction, so the JSON encode runs once.
    _wire_size: int | None = field(default=None, repr=False, compare=False)

    def wire_size(self) -> int:
        if self._wire_size is None:
            self._wire_size = encoded_size(
                {"op": self.op, **self.fields}, self.payload)
        return self._wire_size


@dataclass
class Response:
    """A service-to-client message.

    ``ok`` distinguishes protocol-level failures (bad path, auth denied)
    from transport failures, which surface as exceptions instead.
    """

    ok: bool = True
    fields: dict[str, Any] = field(default_factory=dict)
    payload: bytes = b""
    error: str = ""
    _wire_size: int | None = field(default=None, repr=False, compare=False)

    def wire_size(self) -> int:
        if self._wire_size is None:
            meta = {"ok": self.ok, "error": self.error, **self.fields}
            self._wire_size = encoded_size(meta, self.payload)
        return self._wire_size

    @classmethod
    def failure(cls, error: str, **fields: Any) -> "Response":
        return cls(ok=False, error=error, fields=dict(fields))


def failed_call(error: BaseException) -> Callable[[], Response]:
    """A ``call_async`` resolver that raises *error* when resolved."""
    def failed() -> Response:
        raise error
    return failed


class Connection:
    """A client-side handle to one service endpoint.

    Every network a sentinel reaches hands these out: the in-process
    :class:`~repro.net.network.Network`, the child's
    :class:`~repro.core.netproxy.ProxyNetwork` and the sandbox's
    allowlist facade.  Each offers ``call(address, request, *,
    deadline=None)`` and ``call_async`` with the same arguments, and
    this handle adds only the endpoint and a closed flag.
    """

    def __init__(self, network, address: "Address") -> None:
        self.network = network
        self.address = address
        self._closed = False

    def call(self, op: str, payload: bytes = b"", *,
             deadline: "Deadline | float | None" = None,
             **fields) -> Response:
        """Issue *op* and return the response; raises on transport failure."""
        if self._closed:
            raise NetworkError("connection is closed")
        return self.network.call(
            self.address, Request(op=op, fields=fields, payload=payload),
            deadline=deadline)

    def call_async(self, op: str, payload: bytes = b"", *,
                   deadline: "Deadline | float | None" = None,
                   **fields) -> Callable[[], Response]:
        """Issue *op*; returns a zero-argument resolver for the response.

        Every error, a closed connection's included, surfaces at
        resolution, so callers can issue a batch before touching any
        result.  Over the bridge the request is on the wire when this
        returns; the in-process network runs the exchange at once.
        """
        if self._closed:
            return failed_call(NetworkError("connection is closed"))
        return self.network.call_async(
            self.address, Request(op=op, fields=fields, payload=payload),
            deadline=deadline)

    def expect(self, op: str, payload: bytes = b"", **fields) -> Response:
        """Like :meth:`call` but raises :class:`NetworkError` on ``ok=False``."""
        response = self.call(op, payload, **fields)
        if not response.ok:
            raise NetworkError(
                f"{self.address} rejected {op!r}: {response.error}")
        return response

    def close(self) -> None:
        self._closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
