"""The telemetry plane: cross-process request tracing + unified metrics.

The paper's §6 evaluation hand-walks the critical path of one ``read()``
("a thread in the sentinel process [must] receive the read request, copy
the buffer, send a message, and context switch...").  This module makes
that walk mechanical for the grown-up runtime:

* **Tracing** — a per-open trace context whose trace/span ids ride the
  framed channel envelope as the ``tc`` field, exactly like the ``dl``
  deadline budget: popped by the peer's worker, re-parented there, and
  the spans the peer produced while serving the request ride the reply
  back as the ``tsp`` field.  One span tree therefore covers app call →
  channel frame → dispatch → sentinel op → (for remote files) network
  bridge → origin service, with retry attempts, respawns, journal
  replays, prefetch fills and write-behind flushes as cause-labelled
  children.  Tracing is off by default and costs one branch per frame
  when disabled.

* **Metrics** — a registry of named counters, gauges and fixed
  log-linear-bucket latency histograms with per-container and global
  scopes.  The pre-existing counter families (``ChannelCounters``,
  ``FileStats``, ``NetworkStats``, cache stats, fault summaries) stay
  where they are — their owners register weakly-referenced *collectors*
  here, and :meth:`Telemetry.snapshot` re-homes them under one stable
  dict (see its docstring for the schema).

* **Export** — a bounded in-memory span buffer with JSONL export plus
  the timeline/snapshot renderers behind ``afctl stats`` / ``afctl
  trace`` (same aligned-column style as :mod:`repro.ntos.trace`).

Clocks are injectable (:class:`Telemetry` takes ``clock``), so tests
never depend on wall time.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import threading
import time
import weakref
from bisect import bisect_left
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "TraceHandle",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Telemetry",
    "TELEMETRY",
    "NULL_SPAN",
    "enable_tracing",
    "disable_tracing",
    "snapshot",
    "render_timeline",
    "render_snapshot",
    "SPAN_BUFFER_LIMIT",
    "HISTOGRAM_BOUNDS",
    "BUNDLE_SCHEMA",
    "METRIC_MODULES",
    "load_metric_modules",
    "bucket_percentile",
    "snap_buckets",
]

#: Default bound on the in-memory span buffer (oldest spans drop first).
SPAN_BUFFER_LIMIT = 4096

#: Version of the evidence-bundle layout written by
#: :meth:`Telemetry.export_bundle` and consumed by ``afctl doctor``.
BUNDLE_SCHEMA = 1

#: Fixed log-linear histogram bucket upper bounds, in seconds: each
#: power of two from 1 µs to ~134 s split into 8 equal sub-buckets
#: (224 bounds, the last ~252 s), plus an implicit overflow bucket.
#: Reporting a bucket's upper bound so overstates a value by at most
#: 12.5%; the powers of two are bounds too, so older snapshots' bucket
#: keys still load.  Fixed bounds keep snapshots comparable across runs
#: and machines.
HISTOGRAM_BOUNDS: tuple[float, ...] = tuple(
    1e-6 * (1 << octave) * (8 + step) / 8
    for octave in range(28) for step in range(8))

#: Every bucket's upper bound, the overflow bucket's included.
_BUCKET_BOUNDS = HISTOGRAM_BOUNDS + (math.inf,)


def _bucket_key(bound: float) -> str:
    return "le_inf" if bound == math.inf else f"le_{bound:.6g}"


#: Snapshot bucket key -> exact bound (a key keeps only six digits).
_BOUND_OF_KEY = {_bucket_key(bound): bound for bound in _BUCKET_BOUNDS}

_ids = itertools.count(1)


def _new_id() -> str:
    """A process-unique id; pid-prefixed so two processes never collide."""
    return f"{os.getpid():x}-{next(_ids):x}"


# ---------------------------------------------------------------------------
# spans


class Span:
    """One timed, named node of a trace tree."""

    __slots__ = ("trace", "sid", "parent", "name", "start_us", "end_us",
                 "status", "attrs", "pid", "sink")

    def __init__(self, trace: str, sid: str, parent: str | None, name: str,
                 start_us: float, attrs: dict[str, Any] | None = None,
                 pid: int | None = None, sink: "_Collector | None" = None
                 ) -> None:
        self.trace = trace
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start_us = start_us
        self.end_us: float | None = None
        self.status: str | None = None
        self.attrs = attrs
        self.pid = pid if pid is not None else os.getpid()
        self.sink = sink

    @property
    def duration_us(self) -> float | None:
        if self.end_us is None:
            return None
        return self.end_us - self.start_us

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes after creation (cause labels etc.)."""
        if self.attrs is None:
            self.attrs = attrs
        else:
            self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict[str, Any]:
        """The JSONL export form: absolute local-clock microseconds."""
        return {
            "trace": self.trace,
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start_us": round(self.start_us, 1),
            "end_us": None if self.end_us is None else round(self.end_us, 1),
            "status": self.status,
            "attrs": self.attrs or {},
            "pid": self.pid,
        }

    def to_wire(self, anchor_us: float) -> dict[str, Any]:
        """The piggyback form: times relative to the shipment's anchor.

        Peer processes run unrelated monotonic clocks; shipping offsets
        lets the receiving side re-anchor the shipment inside the frame
        span that carried it.
        """
        wire: dict[str, Any] = {
            "trace": self.trace,
            "sid": self.sid,
            "parent": self.parent,
            "name": self.name,
            "t": round(self.start_us - anchor_us, 1),
            "pid": self.pid,
        }
        if self.end_us is not None:
            wire["e"] = round(self.end_us - anchor_us, 1)
        if self.status not in (None, "ok"):
            wire["status"] = self.status
        if self.attrs:
            wire["attrs"] = self.attrs
        return wire


class _NullSpan:
    """Reusable no-op context manager for disabled-tracing fast paths."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> bool:
        return False


#: Shared no-op span: callers return this instead of allocating a
#: context manager when tracing is off.
NULL_SPAN = _NullSpan()


class TraceHandle:
    """A live trace: its id plus the (still open) root span."""

    __slots__ = ("id", "root")

    def __init__(self, trace_id: str, root: Span) -> None:
        self.id = trace_id
        self.root = root


class _Collector:
    """A per-request sink capturing spans finished while serving it."""

    __slots__ = ("spans", "closed", "prev")

    def __init__(self, prev: "_Collector | None") -> None:
        self.spans: list[Span] = []
        self.closed = False
        self.prev = prev


# ---------------------------------------------------------------------------
# metrics


class Counter:
    """A monotonically increasing named tally."""

    __slots__ = ("name", "_lock", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, n: int = 1) -> None:
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def snap(self) -> int:
        return self._value


class Gauge:
    """A named point-in-time value (last write wins)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = value

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        self._value = 0.0

    def snap(self) -> float:
        return self._value


class Histogram:
    """A latency histogram over the fixed log-linear bucket bounds.

    ``observe`` is allocation-light (index arithmetic plus in-place
    increments), safe to call per frame.
    """

    __slots__ = ("name", "_lock", "_counts", "count", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self._lock = threading.Lock()
        self._counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        index = bisect_left(HISTOGRAM_BOUNDS, value)
        with self._lock:
            self._counts[index] += 1
            self.count += 1
            self.total += value

    def reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(HISTOGRAM_BOUNDS) + 1)
            self.count = 0
            self.total = 0.0

    def percentile(self, q: float) -> float:
        """Approximate the *q*-quantile (``0 < q <= 1``) in seconds
        (see :func:`bucket_percentile`)."""
        with self._lock:
            counts = list(self._counts)
        return bucket_percentile(zip(_BUCKET_BOUNDS, counts), q)

    def snap(self) -> dict[str, Any]:
        with self._lock:
            counts = list(self._counts)
            count = self.count
            total = self.total
        buckets = {_bucket_key(bound): tally
                   for bound, tally in zip(_BUCKET_BOUNDS, counts) if tally}
        return {"count": count, "sum": total, "buckets": buckets}


def bucket_percentile(buckets: Iterable[tuple[float, int]],
                      q: float) -> float:
    """The *q*-quantile (``0 < q <= 1``) of a bucketed histogram.

    *buckets* are ``(upper bound, tally)`` pairs in ascending bound
    order, the overflow bucket's bound being ``inf``.  Resolution is one
    bucket: the result is the upper bound of the bucket holding the q-th
    observation (``HISTOGRAM_BOUNDS[-1]``, where the overflow bucket
    starts, for an overflow observation), 0.0 when empty.  Over
    :data:`HISTOGRAM_BOUNDS` that is at most 12.5% above the exact
    nearest-rank value of an observation between 1 µs and the last
    bound.
    """
    buckets = list(buckets)
    count = sum(tally for _, tally in buckets)
    if count <= 0:
        return 0.0
    rank = max(1, math.ceil(min(max(q, 0.0), 1.0) * count))
    seen = 0
    for bound, tally in buckets:
        seen += tally
        if seen >= rank:
            break
    return min(bound, HISTOGRAM_BOUNDS[-1])


def snap_buckets(snap: dict[str, Any]) -> list[tuple[float, int]]:
    """A :meth:`Histogram.snap` dict back as :func:`bucket_percentile`
    pairs (a key outside the fixed layout keeps the bound it spells)."""
    return sorted((_BOUND_OF_KEY.get(key) or float(key[3:]), int(tally))
                  for key, tally in (snap.get("buckets") or {}).items()
                  if key.startswith("le_"))


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}
_GLOBAL_SCOPE = ""


class MetricsRegistry:
    """Named metrics in a global scope plus arbitrary (per-container) scopes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._scopes: dict[str, dict[str, Any]] = {_GLOBAL_SCOPE: {}}

    def _get(self, kind: str, name: str, scope: str | None):
        cls = _METRIC_TYPES[kind]
        scope_key = scope or _GLOBAL_SCOPE
        with self._lock:
            metrics = self._scopes.setdefault(scope_key, {})
            metric = metrics.get(name)
            if metric is None:
                metric = metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} in scope {scope_key!r} is "
                    f"{type(metric).__name__}, not {cls.__name__}")
            return metric

    def counter(self, name: str, scope: str | None = None) -> Counter:
        return self._get("counter", name, scope)

    def gauge(self, name: str, scope: str | None = None) -> Gauge:
        return self._get("gauge", name, scope)

    def histogram(self, name: str, scope: str | None = None) -> Histogram:
        return self._get("histogram", name, scope)

    def reset(self) -> None:
        """Zero every metric in place (holders keep their references)."""
        with self._lock:
            scopes = [dict(m) for m in self._scopes.values()]
        for metrics in scopes:
            for metric in metrics.values():
                metric.reset()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            scopes = {key: dict(m) for key, m in self._scopes.items()}
        out: dict[str, Any] = {"global": {}, "scopes": {}}
        for key, metrics in scopes.items():
            rendered = {name: metric.snap()
                        for name, metric in sorted(metrics.items())}
            if key == _GLOBAL_SCOPE:
                out["global"] = rendered
            else:
                out["scopes"][key] = rendered
        return out

    @staticmethod
    def _flat(metrics: dict[str, Any]) -> dict[str, float]:
        """One scope's metrics as flat numbers (histograms contribute
        ``<name>.count`` and ``<name>.sum``; non-numeric values drop)."""
        flat: dict[str, float] = {}
        for name, value in metrics.items():
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)):
                flat[name] = value
            elif isinstance(value, dict) and "count" in value \
                    and "sum" in value:
                flat[f"{name}.count"] = value.get("count", 0)
                flat[f"{name}.sum"] = value.get("sum", 0.0)
        return flat

    @staticmethod
    def diff(before: dict[str, Any],
             after: dict[str, Any]) -> dict[str, Any]:
        """Numeric metric movement between two :meth:`snapshot` documents.

        Accepts either full snapshots (``{"global": ..., "scopes":
        ...}``) — returning the same shape, with scopes whose metrics
        did not move omitted — or two flat single-scope dicts,
        returning a flat delta dict.  Histograms contribute
        ``<name>.count`` / ``<name>.sum`` deltas; zero deltas are
        omitted, so an empty result means "nothing moved".
        """
        def one(b: dict[str, Any], a: dict[str, Any]) -> dict[str, float]:
            b_flat = MetricsRegistry._flat(b or {})
            a_flat = MetricsRegistry._flat(a or {})
            out: dict[str, float] = {}
            for key, value in a_flat.items():
                delta = value - b_flat.get(key, 0)
                if delta:
                    out[key] = delta
            return out

        before = before or {}
        after = after or {}
        if isinstance(after.get("global"), dict) \
                or isinstance(before.get("global"), dict):
            before_scopes = before.get("scopes") or {}
            after_scopes = after.get("scopes") or {}
            scopes: dict[str, dict[str, float]] = {}
            for scope in sorted(set(before_scopes) | set(after_scopes)):
                delta = one(before_scopes.get(scope, {}),
                            after_scopes.get(scope, {}))
                if delta:
                    scopes[scope] = delta
            return {"global": one(before.get("global") or {},
                                  after.get("global") or {}),
                    "scopes": scopes}
        return one(before, after)


#: The modules that create fixed-name registry metrics when imported.
#: A snapshot imports them all first, so its key set never depends on
#: which of them the process happened to load (the package surfaces
#: are lazy, and a host child loads no client module).
METRIC_MODULES = (
    "repro.core.cache",
    "repro.core.channel",
    "repro.core.fanout",
    "repro.core.hostloop",
    "repro.core.runner",
    "repro.core.shm",
)


def load_metric_modules() -> None:
    """Import every module of :data:`METRIC_MODULES`."""
    import importlib

    for module in METRIC_MODULES:
        importlib.import_module(module)


#: The ChannelCounters keys summed across live connections for
#: ``snapshot()["transport"]["totals"]`` — the cross-connection view.
TRANSPORT_TOTAL_KEYS = (
    "requests_sent", "replies_received", "requests_served",
    "requests_failed", "bytes_sent", "bytes_received", "in_flight",
    "max_in_flight", "close_errors",
)


# ---------------------------------------------------------------------------
# the plane


class Telemetry:
    """One process's telemetry plane (module-global :data:`TELEMETRY`).

    Separate instances (with injected clocks) exist only in tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic,
                 buffer_limit: int = SPAN_BUFFER_LIMIT) -> None:
        self.clock = clock
        #: Master tracing switch; hot paths read this one attribute.
        self.tracing = False
        #: True in sentinel child processes: spans produced while serving
        #: a traced request ship back on the reply (``tsp``) instead of
        #: accumulating in a buffer nobody will ever read.
        self.piggyback = False
        self.metrics = MetricsRegistry()
        self._lock = threading.Lock()
        self._buffer: deque[Span] = deque(maxlen=buffer_limit)
        self._dropped = 0
        self._tls = threading.local()
        self._seq = itertools.count(1)
        #: family -> {key: (weakref-to-owner, fn(owner) -> dict)}
        self._families: dict[str, dict[str, tuple]] = {}

    # -- switches ----------------------------------------------------------------

    def enable_tracing(self) -> None:
        self.tracing = True

    def disable_tracing(self) -> None:
        self.tracing = False

    def reset(self) -> None:
        """Drop buffered spans and zero metrics; collectors stay registered."""
        with self._lock:
            self._buffer.clear()
            self._dropped = 0
        self.metrics.reset()

    # -- span lifecycle ----------------------------------------------------------

    def current(self) -> Span | None:
        stack = getattr(self._tls, "stack", None)
        return stack[-1] if stack else None

    def begin(self, name: str, *, trace: str | None = None,
              parent: "Span | str | None" = None,
              attrs: dict[str, Any] | None = None,
              push: bool = False) -> Span:
        """Open a span.  Trace/parent default to the thread's current span.

        ``push=True`` additionally makes it the thread's current span
        until :meth:`finish`.
        """
        if isinstance(parent, Span):
            trace = trace if trace is not None else parent.trace
            parent = parent.sid
        elif trace is None or parent is None:
            cur = self.current()
            if cur is not None:
                if trace is None:
                    trace = cur.trace
                if parent is None:
                    parent = cur.sid
        if trace is None:
            trace = _new_id()
        span = Span(trace, _new_id(), parent, name,
                    self.clock() * 1e6, attrs,
                    sink=getattr(self._tls, "collector", None))
        if push:
            stack = getattr(self._tls, "stack", None)
            if stack is None:
                stack = self._tls.stack = []
            stack.append(span)
        return span

    def finish(self, span: Span, status: str = "ok") -> None:
        """Close a span and record it (buffer, or the bound collector)."""
        if span.end_us is not None:
            return
        span.end_us = self.clock() * 1e6
        if span.status is None:
            span.status = status
        stack = getattr(self._tls, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        sink = span.sink
        if sink is not None and not sink.closed:
            sink.spans.append(span)
        else:
            self._record(span)

    @contextmanager
    def span(self, name: str, *, trace: str | None = None,
             parent: "Span | str | None" = None,
             attrs: dict[str, Any] | None = None):
        """``with tel.span("cache.flush", attrs={...}) as s: ...``"""
        span = self.begin(name, trace=trace, parent=parent, attrs=attrs,
                          push=True)
        try:
            yield span
        except BaseException:
            self.finish(span, status="error")
            raise
        self.finish(span)

    def event(self, name: str, *, attrs: dict[str, Any] | None = None) -> None:
        """A zero-duration marker span under the current span."""
        span = self.begin(name, attrs=attrs)
        self.finish(span)

    def new_trace(self, name: str,
                  attrs: dict[str, Any] | None = None) -> TraceHandle:
        """Start a fresh trace; the returned handle's root span stays
        open until the owner finishes it (e.g. file close)."""
        root = self.begin(name, trace=None, parent=None, attrs=attrs)
        return TraceHandle(root.trace, root)

    def _record(self, span: Span) -> None:
        with self._lock:
            if len(self._buffer) == self._buffer.maxlen:
                self._dropped += 1
            self._buffer.append(span)

    # -- cross-process piggyback -------------------------------------------------

    def start_collect(self) -> _Collector:
        """Capture spans finished by (or bound to) this request's handling."""
        collector = _Collector(getattr(self._tls, "collector", None))
        self._tls.collector = collector
        return collector

    def end_collect(self, collector: _Collector,
                    anchor_us: float) -> list[dict[str, Any]]:
        """Close the collector; returns the wire form of what it caught."""
        collector.closed = True
        self._tls.collector = collector.prev
        return [span.to_wire(anchor_us) for span in collector.spans]

    def ingest(self, shipped: Iterable[dict[str, Any]],
               anchor: "Span | float | None" = None) -> None:
        """Adopt spans shipped from a peer process into the local buffer.

        *anchor* (typically the frame span that carried them) re-bases
        the peer's relative timestamps onto this process's clock.
        """
        if isinstance(anchor, Span):
            anchor_us = anchor.start_us
        elif anchor is not None:
            anchor_us = float(anchor)
        else:
            anchor_us = self.clock() * 1e6
        for wire in shipped:
            try:
                span = Span(wire["trace"], wire["sid"], wire.get("parent"),
                            wire["name"], anchor_us + float(wire["t"]),
                            wire.get("attrs") or None, pid=wire.get("pid"))
                end = wire.get("e")
                span.end_us = None if end is None else anchor_us + float(end)
                span.status = wire.get("status", "ok")
            except (KeyError, TypeError, ValueError):
                continue  # a malformed shipment must never break the reply
            self._record(span)

    # -- buffer / export ---------------------------------------------------------

    def spans(self, trace: str | None = None) -> list[Span]:
        with self._lock:
            out = list(self._buffer)
        if trace is not None:
            out = [s for s in out if s.trace == trace]
        return out

    def drain(self) -> list[Span]:
        with self._lock:
            out = list(self._buffer)
            self._buffer.clear()
        return out

    def export_jsonl(self, path: Any, trace: str | None = None) -> int:
        """Write buffered spans (optionally one trace) as JSONL."""
        spans = self.spans(trace=trace)
        with open(path, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
        return len(spans)

    def export_bundle(self, dirname: Any, *,
                      before: dict[str, Any] | None = None,
                      ping: dict[str, Any] | None = None,
                      chaos_report: dict[str, Any] | None = None,
                      meta: dict[str, Any] | None = None) -> dict[str, str]:
        """Write a self-contained evidence bundle into *dirname*.

        The bundle is the file-shaped hand-off between the telemetry
        plane and ``afctl doctor``: a directory of plain JSON/JSONL
        documents (schema :data:`BUNDLE_SCHEMA`, recorded in
        ``meta.json``) that diagnostics consume offline —

        * ``snapshot.json`` — the full :meth:`snapshot` (always);
        * ``snapshot_before.json`` — an earlier snapshot, enabling
          trend checks (optional);
        * ``spans.jsonl`` — the buffered spans, if any (optional);
        * ``ping.json`` — a live host's channel-0 ``ping`` reply
          (``host.*`` gauges + queue-wait/service split) (optional);
        * ``chaos_report.json`` — a chaos scenario report (optional).

        Returns ``{logical name: file path}`` for what was written.
        """
        os.makedirs(dirname, exist_ok=True)
        written: dict[str, str] = {}

        def emit(name: str, doc: dict[str, Any]) -> None:
            path = os.path.join(dirname, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, default=str)
                fh.write("\n")
            written[name] = path

        emit("snapshot.json", self.snapshot())
        if before is not None:
            emit("snapshot_before.json", before)
        if len(self._buffer):
            path = os.path.join(dirname, "spans.jsonl")
            self.export_jsonl(path)
            written["spans.jsonl"] = path
        if ping is not None:
            emit("ping.json", ping)
        if chaos_report is not None:
            emit("chaos_report.json", chaos_report)
        emit("meta.json", {"kind": "af-evidence", "schema": BUNDLE_SCHEMA,
                           "files": sorted(written), **(meta or {})})
        return written

    def trace_tree(self, trace: str,
                   extra: Iterable[Span] = ()) -> dict[str, Any] | None:
        """The nested span tree of one trace (children sorted by start).

        *extra* lets callers merge still-open spans (a live root) that
        have not reached the buffer yet.
        """
        spans = self.spans(trace)
        seen = {s.sid for s in spans}
        for span in extra:
            if span.trace == trace and span.sid not in seen:
                spans.append(span)
                seen.add(span.sid)
        if not spans:
            return None
        nodes = {}
        for span in spans:
            node = span.to_dict()
            node["children"] = []
            nodes[span.sid] = node
        roots = []
        for span in sorted(spans, key=lambda s: s.start_us):
            node = nodes[span.sid]
            parent = nodes.get(span.parent) if span.parent else None
            if parent is None:
                roots.append(node)
            else:
                parent["children"].append(node)
        if len(roots) == 1:
            return roots[0]
        return {"trace": trace, "sid": None, "parent": None,
                "name": f"<trace {trace}>", "start_us": roots[0]["start_us"],
                "end_us": None, "status": None, "attrs": {}, "pid": None,
                "children": roots}

    # -- collector registry / snapshot -------------------------------------------

    def register_collector(self, family: str, key: str, owner: Any,
                           fn: Callable[[Any], Any]) -> str:
        """Re-home an existing counter object under ``snapshot()``.

        The registry holds only a weak reference to *owner*; entries
        vanish with their owners, so registration never extends a
        counter's lifetime.  Returns the unique key used.
        """
        ref = weakref.ref(owner)
        with self._lock:
            unique = f"{key}#{next(self._seq)}"
            self._families.setdefault(family, {})[unique] = (ref, fn)
        return unique

    def snapshot(self) -> dict[str, Any]:
        """Every counter family under one stable dict.  The schema:

        * ``transport`` — ``{"connections": {key: ChannelCounters
          .snapshot()}, "totals": {...}}`` where totals sums
          :data:`TRANSPORT_TOTAL_KEYS` across connections;
        * ``files`` — per-open :class:`~repro.core.fileobj.FileStats`
          dicts keyed by container path;
        * ``cache`` — in-process :class:`~repro.core.cache.BlockCache`
          ``stats()`` dicts;
        * ``network`` — :class:`~repro.net.network.NetworkStats` dicts;
        * ``faults`` — armed :class:`~repro.core.faults.FaultPlane`
          ``summary()`` dicts;
        * ``host`` — :class:`~repro.core.hostloop.EventLoopServer`
          ``stats()`` dicts (the ``host.*`` gauges);
        * ``close_errors`` — ``{"last"}``, the latest close-error text
          of any transport connection (their count is the
          ``close_errors`` transport total);
        * ``metrics`` — the :class:`MetricsRegistry` snapshot
          (``{"global": ..., "scopes": ...}``);
        * ``spans`` — ``{"tracing", "buffered", "dropped"}``.

        The global metrics always include every fixed name that
        :data:`METRIC_MODULES` create.
        """
        load_metric_modules()
        with self._lock:
            families = {fam: dict(entries)
                        for fam, entries in self._families.items()}
        out: dict[str, Any] = {}
        dead: list[tuple[str, str]] = []
        for family in ("transport", "files", "cache", "network", "faults",
                       "host"):
            rendered: dict[str, Any] = {}
            for key, (ref, fn) in families.get(family, {}).items():
                owner = ref()
                if owner is None:
                    dead.append((family, key))
                    continue
                try:
                    rendered[key] = fn(owner)
                except Exception:
                    continue  # a broken collector must not break snapshot
            out[family] = rendered
        if dead:
            with self._lock:
                for family, key in dead:
                    self._families.get(family, {}).pop(key, None)
        connections = out["transport"]
        totals = dict.fromkeys(TRANSPORT_TOTAL_KEYS, 0)
        last_close = ""
        for snap in connections.values():
            for key in TRANSPORT_TOTAL_KEYS:
                totals[key] += snap.get(key, 0)
            if snap.get("last_close_error"):
                last_close = snap["last_close_error"]
        out["transport"] = {"connections": connections, "totals": totals}
        out["close_errors"] = {"last": last_close}
        out["metrics"] = self.metrics.snapshot()
        with self._lock:
            out["spans"] = {"tracing": self.tracing,
                            "buffered": len(self._buffer),
                            "dropped": self._dropped}
        return out


#: The process-global telemetry plane every layer hooks into.
TELEMETRY = Telemetry()


def enable_tracing() -> None:
    TELEMETRY.enable_tracing()


def disable_tracing() -> None:
    TELEMETRY.disable_tracing()


def snapshot() -> dict[str, Any]:
    return TELEMETRY.snapshot()


# ---------------------------------------------------------------------------
# rendering (the afctl surfaces; same aligned-column style as ntos/trace.py)


def _attr_text(span_dict: dict[str, Any]) -> str:
    parts = [f"{key}={value}" for key, value in
             (span_dict.get("attrs") or {}).items()]
    status = span_dict.get("status")
    if status not in (None, "ok"):
        parts.append(f"!{status}")
    return " ".join(parts)


def render_timeline(spans: Iterable[Span], limit: int = 60) -> str:
    """An aligned per-operation timeline, tree-indented by span depth."""
    spans = list(spans)
    if not spans:
        return "(no spans recorded)"
    by_sid = {span.sid: span for span in spans}

    def depth(span: Span) -> int:
        d, cursor, hops = 0, span.parent, 0
        while cursor is not None and hops < 64:
            parent = by_sid.get(cursor)
            if parent is None:
                break
            d += 1
            cursor = parent.parent
            hops += 1
        return d

    anchor = min(span.start_us for span in spans)
    lines = [f"{'t (µs)':>12}  {'dur (µs)':>10}  {'pid':>7}  span"]
    shown = sorted(spans, key=lambda s: (s.start_us, s.sid))
    for span in shown[:limit]:
        dur = span.duration_us
        dur_text = f"{dur:>10.1f}" if dur is not None else f"{'open':>10}"
        detail = _attr_text(span.to_dict())
        name = "  " * depth(span) + span.name
        if detail:
            name = f"{name}  [{detail}]"
        lines.append(f"{span.start_us - anchor:>12.1f}  {dur_text}  "
                     f"{span.pid:>7}  {name}")
    if len(shown) > limit:
        lines.append(f"... {len(shown) - limit} more spans")
    return "\n".join(lines)


def _render_section(title: str, body: dict[str, Any],
                    lines: list[str]) -> None:
    lines.append(f"{title}:")
    if not body:
        lines.append("  (none)")
        return
    for key, value in body.items():
        if isinstance(value, dict):
            brief = " ".join(
                f"{k}={v}" for k, v in value.items()
                if not isinstance(v, dict))
            lines.append(f"  {key}: {brief}")
        else:
            lines.append(f"  {key}: {value}")


def render_snapshot(snap: dict[str, Any]) -> str:
    """A human-readable rendering of :meth:`Telemetry.snapshot`."""
    lines: list[str] = []
    totals = snap.get("transport", {}).get("totals", {})
    lines.append("transport totals:")
    for key in TRANSPORT_TOTAL_KEYS:
        lines.append(f"  {key}: {totals.get(key, 0)}")
    connections = snap.get("transport", {}).get("connections", {})
    lines.append(f"  connections: {len(connections)}")
    _render_section("files", snap.get("files", {}), lines)
    _render_section("cache", snap.get("cache", {}), lines)
    _render_section("network", snap.get("network", {}), lines)
    _render_section("faults", snap.get("faults", {}), lines)
    _render_section("host", snap.get("host", {}), lines)
    # The count is the close_errors transport total printed above.
    last_close = snap.get("close_errors", {}).get("last")
    _render_section("close errors", {"last": last_close} if last_close
                    else {}, lines)
    metrics = snap.get("metrics", {})
    _render_section("metrics (global)", metrics.get("global", {}), lines)
    for scope, values in sorted(metrics.get("scopes", {}).items()):
        _render_section(f"metrics [{scope}]", values, lines)
    spans_info = snap.get("spans", {})
    lines.append(f"spans: tracing={'on' if spans_info.get('tracing') else 'off'}"
                 f" buffered={spans_info.get('buffered', 0)}"
                 f" dropped={spans_info.get('dropped', 0)}")
    return "\n".join(lines)
