"""The sentinel programming model.

"An active file is a regular file that is associated with an executable
program.  When an active file is opened, the associated executable is
run as a sentinel process" (paper §2).  In this reproduction a sentinel
is a Python object with overridable handlers; the four implementation
strategies differ only in *where* the object runs (child process,
injected thread, or inline) and *how* operations reach it (pipes,
control channel, shared memory, or direct calls) — the programming model
is uniform, which is the portability the paper's Section 5 works
towards.

Two base classes are provided:

* :class:`Sentinel` — offset-addressed handlers (`on_read`/`on_write`
  with explicit offsets, plus size/truncate/flush/control).  The default
  implementations pass through to the data part, i.e. a bare ``Sentinel``
  is exactly the paper's *null filter*: "the active file has the
  semantics of a passive file".
* :class:`StreamSentinel` — for purely sequential producers/consumers
  (the paper's Figure 2 two-thread model).  These also work under the
  simple process strategy, which has no control channel and therefore no
  way to express offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import UnsupportedOperationError
from repro.core.container import Container
from repro.core.datapart import ContainerDataPart, DataPart, MemoryDataPart
from repro.core.fanout import DEFAULT_MAX_PENDING, domain_for
from repro.net.address import Address

__all__ = ["Sentinel", "StreamSentinel", "SentinelContext",
           "make_context", "make_data_part"]


@dataclass
class SentinelContext:
    """Everything a sentinel can see while serving one open.

    One context is created per open; ``coherence`` (when available) is
    the cross-open coordination the paper's Section 2.2 calls for.
    """

    #: Path of the ``.af`` container, or ``""`` for anonymous opens.
    path: str = ""
    #: Parameters from the sentinel spec.
    params: dict[str, Any] = field(default_factory=dict)
    #: The local data part ("acts as a local cache").
    data: DataPart = field(default_factory=MemoryDataPart)
    #: Object exposing ``connect(Address)``; ``None`` if no network wired.
    network: Any = None
    #: The per-container :class:`~repro.core.fanout.CoherenceDomain`
    #: joining every open served by this process (leases, write fences,
    #: single-flight fills, pub/sub fan-out); ``None`` when the serving
    #: strategy provides no cross-open coherence.
    coherence: Any = None
    #: Container metadata (free-form).
    meta: dict[str, Any] = field(default_factory=dict)
    #: Strategy name serving this open ("process", "thread", ...).
    strategy: str = ""
    #: Remaining :class:`~repro.core.policy.Deadline` budget of the
    #: command currently being served (set per-command by the
    #: dispatcher; ``None`` when the caller imposed no bound).
    deadline: Any = None

    def connect(self, address: "Address | str"):
        """Open a connection to a remote service by Address or URL string."""
        if self.network is None:
            raise UnsupportedOperationError(
                "this open has no network attached; pass network= to open_active()"
            )
        if isinstance(address, str):
            address, _ = Address.parse(address)
        return self.network.connect(address)


def make_data_part(container: Container) -> DataPart:
    """Pick the data-part backing for *container*.

    Containers may declare ``meta={"data": "memory"}`` for an ephemeral
    data part (the paper: "an active file can have an empty data part
    ... the sentinel process just creates the illusion of its
    existence"); the default is the persistent container segment.
    """
    if container.meta.get("data") == "memory":
        return MemoryDataPart(container.data)
    return ContainerDataPart(container)


def make_context(container: Container, network,
                 strategy: str) -> SentinelContext:
    """Build a per-open sentinel context.

    Every open joins the container's process-wide
    :class:`~repro.core.fanout.CoherenceDomain`; opens in other
    processes coordinate on ``FileLock``.
    """
    return SentinelContext(
        path=str(container.path),
        params=dict(container.spec.params),
        data=make_data_part(container),
        network=network,
        coherence=domain_for(container.path),
        meta=dict(container.meta),
        strategy=strategy,
    )


class Sentinel:
    """Base class for offset-addressed sentinels (default: null filter)."""

    #: Chunk size used when this sentinel is driven in stream mode.
    stream_chunk = 4096

    #: Endless sentinels (e.g. random generators) never signal EOF in
    #: stream mode and report an unbounded size.
    endless = False

    def __init__(self, params: dict[str, Any] | None = None) -> None:
        self.params = dict(params or {})

    # -- lifecycle -------------------------------------------------------------

    def on_open(self, ctx: SentinelContext) -> None:
        """Called once, after the strategy wired the context, before I/O."""

    def on_close(self, ctx: SentinelContext) -> None:
        """Called once when the application closes the file."""

    # -- data plane --------------------------------------------------------------

    def on_read(self, ctx: SentinelContext, offset: int, size: int) -> bytes:
        """Serve a read; default passes through to the data part."""
        return ctx.data.read_at(offset, size)

    def on_write(self, ctx: SentinelContext, offset: int, data: bytes) -> int:
        """Serve a write; default passes through to the data part."""
        return ctx.data.write_at(offset, data)

    def on_read_into(self, ctx: SentinelContext, offset: int, size: int,
                     buffer: memoryview) -> int:
        """Serve a read directly into *buffer*; returns bytes filled.

        The shared-memory fast path offers the reply slot here so the
        bytes land in it without an intermediate ``bytes`` object.  A
        null filter (no ``on_read`` override) fills straight from the
        data part; filtering sentinels route through their ``on_read``
        so overriding one method keeps both planes consistent.
        """
        if type(self).on_read is Sentinel.on_read:
            return ctx.data.read_at_into(offset, buffer[:size])
        data = self.on_read(ctx, offset, size)
        filled = len(data)
        buffer[:filled] = data
        return filled

    def on_size(self, ctx: SentinelContext) -> int:
        """Serve GetFileSize; default reports the data part's size."""
        return ctx.data.size

    def on_truncate(self, ctx: SentinelContext, size: int) -> None:
        ctx.data.truncate(size)

    def on_flush(self, ctx: SentinelContext) -> None:
        ctx.data.flush()

    # -- control plane ------------------------------------------------------------

    def on_control(self, ctx: SentinelContext, op: str, args: dict[str, Any],
                   payload: bytes) -> tuple[dict[str, Any], bytes]:
        """Serve a custom control operation.

        The control channel is what lets active files support "even ...
        calls that do not have corresponding pipe operations" (§A.2).
        Unknown operations raise, mirroring the paper's "dropped with an
        appropriate return code".
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not implement control op {op!r}"
        )

    # -- fan-out plane (coherence domain) ------------------------------------------

    def _fanout_domain(self, ctx: SentinelContext):
        domain = ctx.coherence
        if domain is None:
            raise UnsupportedOperationError(
                f"{type(self).__name__}: this open has no coherence domain "
                "(the serving strategy provides no cross-open fan-out)")
        return domain

    def _fanout_member(self, ctx: SentinelContext) -> int:
        """This open's domain member id, registered lazily.

        Sentinels that join the domain with cache callbacks (e.g. the
        remote-file sentinel) set ``_fanout_member_id`` themselves in
        ``on_open``; the base class registers a callback-free member.
        """
        member = getattr(self, "_fanout_member_id", None)
        if member is None:
            member = self._fanout_domain(ctx).register()
            self._fanout_member_id = member
        return member

    def _fanout_release(self, ctx: SentinelContext) -> None:
        """Leave the domain at close (called by the dispatchers)."""
        domain = ctx.coherence
        if domain is None:
            return
        member = getattr(self, "_fanout_member_id", None)
        if member is not None:
            domain.unregister(member)
            self._fanout_member_id = None

    def on_publish(self, ctx: SentinelContext, offset: int, data: bytes,
                   meta: dict[str, Any]) -> dict[str, Any]:
        """Apply *data* as a write, then fan it out to the domain.

        The default routes through :meth:`on_write` (so a publishing
        open observes its own update) and multicasts to every peer and
        subscriber.  *meta* fields ride along on the update records.
        A domain-aware write path (one that publishes inside its own
        write fence) is detected by its sequence number and not
        published a second time.
        """
        domain = self._fanout_domain(ctx)
        member = self._fanout_member(ctx)
        before = domain.last_published(member)
        written = self.on_write(ctx, offset, data)
        seq = domain.last_published(member)
        if seq == before:
            seq = domain.publish(member, offset, data,
                                 fields=dict(meta or {}))
        return {"written": written, "seq": seq}

    def on_subscribe(self, ctx: SentinelContext,
                     args: dict[str, Any]) -> dict[str, Any]:
        """Open a bounded update queue; returns ``{"sub": id}``."""
        domain = self._fanout_domain(ctx)
        sub = domain.subscribe(
            self._fanout_member(ctx),
            max_pending=int(args.get("max_pending", DEFAULT_MAX_PENDING)))
        return {"sub": sub}

    def on_poll(self, ctx: SentinelContext, args: dict[str, Any]
                ) -> tuple[dict[str, Any], bytes]:
        """Drain pending update records for one subscription."""
        domain = self._fanout_domain(ctx)
        updates = domain.poll(int(args["sub"]),
                              max_items=int(args.get("max_items", 64)))
        return {"updates": updates, "seq": domain.seq}, b""

    def on_unsubscribe(self, ctx: SentinelContext,
                       args: dict[str, Any]) -> dict[str, Any]:
        self._fanout_domain(ctx).unsubscribe(int(args["sub"]))
        return {}

    # -- stream-mode adaptation (simple process strategy) ---------------------------

    def generate(self, ctx: SentinelContext) -> Iterator[bytes]:
        """Produce the read stream; default walks on_read sequentially."""
        offset = 0
        while True:
            chunk = self.on_read(ctx, offset, self.stream_chunk)
            if not chunk:
                if self.endless:
                    continue
                return
            offset += len(chunk)
            yield chunk

    def consume(self, ctx: SentinelContext, data: bytes, offset: int) -> int:
        """Absorb one chunk of the write stream at the running offset."""
        return self.on_write(ctx, offset, data)


class StreamSentinel(Sentinel):
    """Base class for sequential producer/consumer sentinels.

    Subclasses override :meth:`generate` and/or :meth:`consume`.  Random
    access is rejected unless the subclass opts back in — such sentinels
    are exactly the ones the paper runs under the simple process
    strategy, where "operations such as ReadFileScatter (or seek in
    Unix) ... cannot be implemented".
    """

    def on_read(self, ctx: SentinelContext, offset: int, size: int) -> bytes:
        raise UnsupportedOperationError(
            f"{type(self).__name__} is stream-only; random reads unsupported"
        )

    def on_write(self, ctx: SentinelContext, offset: int, data: bytes) -> int:
        raise UnsupportedOperationError(
            f"{type(self).__name__} is stream-only; random writes unsupported"
        )

    def generate(self, ctx: SentinelContext) -> Iterator[bytes]:
        return iter(())

    def consume(self, ctx: SentinelContext, data: bytes, offset: int) -> int:
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not accept writes"
        )
