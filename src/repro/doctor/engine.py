"""The diagnostics engine: evidence in, ranked findings out.

Three layers, mirroring the chaos engine's declarative design:

* **Evidence** — a loaded telemetry bundle (merged snapshot, optional
  earlier snapshot for trend checks, optional span JSONL, optional
  chaos report, optional live-host ``ping`` reply), with a *flattened*
  view: every observable folded into one ``{dotted.key: number}`` dict
  (plus a per-container scoped variant) so checks reference stable
  names instead of walking nested snapshot shapes.

* **Analyzers** — plugin objects with an ``analyze(evidence) ->
  [Finding]`` method.  Discovery is entry-point style: every module in
  :mod:`repro.doctor.plugins` is imported and registers factories via
  :func:`register`; the two shipped plugins wrap the declarative YAML
  checks (:mod:`repro.doctor.checks`) and the span-tree analyzers
  (:mod:`repro.doctor.spans`).

* **Report** — findings ranked by severity under a stable schema with
  a chaos-style deterministic ``fingerprint``: replaying the doctor
  over the same bundle yields an identical fingerprint, so "did this
  change what doctor sees" is one dict comparison.

The flattening contract (``KNOWN_METRICS`` below) is the seam every
future perf PR extends: land a counter, add its key here, ship a
declarative check that encodes the regression it guards against.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pkgutil
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.telemetry import (
    BUNDLE_SCHEMA,
    TELEMETRY,
    MetricsRegistry,
    bucket_percentile,
    snap_buckets,
)
from repro.errors import DoctorError

__all__ = [
    "DOCTOR_SCHEMA",
    "SEVERITIES",
    "KNOWN_METRICS",
    "KNOWN_METRIC_PREFIXES",
    "known_metric",
    "Finding",
    "Evidence",
    "Analyzer",
    "register",
    "build_analyzers",
    "run_doctor",
    "render_report",
    "flatten_snapshot",
    "flatten_scopes",
]

#: Version of the doctor report format (bumped on breaking changes;
#: guarded by the schema-contract test).
DOCTOR_SCHEMA = 1

#: Finding severities, most severe first (also the report sort order).
SEVERITIES = ("critical", "warning", "info")
_SEV_RANK = {sev: rank for rank, sev in enumerate(SEVERITIES)}

# ---------------------------------------------------------------------------
# The metric catalog: every dotted key the flattener can produce.  The
# checks linter rejects references to anything else, so a typo'd check
# fails lint instead of silently never firing.
# ---------------------------------------------------------------------------

#: Exact flattened keys (see :func:`flatten_snapshot` for provenance).
KNOWN_METRICS = frozenset({
    # metrics registry (global scope)
    "host.backpressure.stalls", "host.rejects.total", "host.respawns",
    "hosts.pooled", "hosts.spawned",
    "shm.bytes", "shm.fallback_inline", "shm.slots_leased",
    # coherence + fan-out plane
    "fanout.published", "fanout.delivered", "fanout.dropped",
    "fanout.evicted", "fanout.subscribers",
    "lease.granted", "lease.invalidated", "lease.fill_coalesced",
    "lease.write_waits",
    "transport.header.binary", "transport.header.json",
    # host.* latency-split histograms (flattened)
    "host.queue_wait_s.count", "host.queue_wait_s.sum",
    "host.queue_wait_s.p50", "host.queue_wait_s.p95",
    "host.service_s.count", "host.service_s.sum",
    "host.service_s.p50", "host.service_s.p95",
    # transport totals
    "transport.requests_sent", "transport.replies_received",
    "transport.requests_served", "transport.requests_failed",
    "transport.bytes_sent", "transport.bytes_received",
    "transport.in_flight", "transport.max_in_flight",
    "transport.close_errors",
    # cache aggregate (summed across registered caches)
    "cache.hits", "cache.misses", "cache.prefetch_issued",
    "cache.prefetch_used", "cache.coalesced_flushes",
    "cache.dirty_high_water", "cache.flush_failures", "cache.dirty_bytes",
    "cache.blocks", "cache.inflight_blocks", "cache.window",
    "cache.writeback",
    # host serving loop (section and/or live ping)
    "host.channels.active", "host.queue.depth", "host.inflight",
    "host.rejects", "host.executors", "host.timers",
    "host.sessions", "host.threads",
    # network aggregate
    "network.requests", "network.bytes_sent", "network.bytes_received",
    "network.charged_us", "network.partitions", "network.heals",
    "network.partition_drops",
    # bookkeeping
    "spans.buffered", "spans.dropped", "close_errors.count",
    # per-container (scoped) file stats
    "file.reads", "file.writes", "file.bytes_read", "file.bytes_written",
    "file.seeks", "file.controls", "file.cache_hits", "file.cache_misses",
    "file.prefetch_issued", "file.prefetch_used", "file.coalesced_flushes",
    "file.dirty_high_water",
})

#: Open-ended key families (suffix varies per run: fault rules, op
#: families, session strategies, live latency splits).
KNOWN_METRIC_PREFIXES = (
    "faults.injected.", "faults.fired.",
    "sessions.opened.", "host.lat.", "transport.latency.",
)


def known_metric(name: str) -> bool:
    """True when *name* is a key the flattener can produce."""
    return name in KNOWN_METRICS or name.startswith(KNOWN_METRIC_PREFIXES)


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

@dataclass
class Finding:
    """One diagnosis: what is wrong, how bad, and what to do about it."""

    check: str                 #: the analyzer/check that produced it
    severity: str              #: one of :data:`SEVERITIES`
    subsystem: str             #: shm / cache / host / transport / ...
    message: str               #: human-readable diagnosis
    action: str = ""           #: suggested operator action
    evidence: dict[str, float] = field(default_factory=dict)
    scope: str = ""            #: container path / trace id ("" = global)

    def to_dict(self) -> dict[str, Any]:
        return {
            "check": self.check,
            "severity": self.severity,
            "subsystem": self.subsystem,
            "message": self.message,
            "action": self.action,
            "evidence": {key: self.evidence[key]
                         for key in sorted(self.evidence)},
            "scope": self.scope,
        }

    def sort_key(self) -> tuple:
        return (_SEV_RANK.get(self.severity, len(SEVERITIES)),
                self.subsystem, self.check, self.scope)


# ---------------------------------------------------------------------------
# Snapshot flattening
# ---------------------------------------------------------------------------

def _flat_metrics(metrics: dict[str, Any]) -> dict[str, float]:
    """One metrics scope flattened, histograms gaining p50/p95 keys."""
    flat = MetricsRegistry._flat(metrics)
    for name, value in metrics.items():
        if isinstance(value, dict) and "buckets" in value:
            buckets = snap_buckets(value)
            flat[f"{name}.p50"] = bucket_percentile(buckets, 0.50)
            flat[f"{name}.p95"] = bucket_percentile(buckets, 0.95)
    return flat


def _sum_into(out: dict[str, float], key: str, value: Any,
              how: str = "sum") -> None:
    if isinstance(value, bool):
        value = int(value)
    if not isinstance(value, (int, float)):
        return
    if how == "max":
        out[key] = max(out.get(key, 0), value)
    else:
        out[key] = out.get(key, 0) + value


#: cache fields where summing across caches would be wrong.
_CACHE_MAX_FIELDS = frozenset({"window", "dirty_high_water"})


def flatten_snapshot(snap: dict[str, Any],
                     ping: dict[str, Any] | None = None) -> dict[str, float]:
    """Fold one :meth:`Telemetry.snapshot` into ``{dotted.key: number}``.

    Aggregation rules, section by section (the contract checks rely
    on — extend :data:`KNOWN_METRICS` when extending this):

    * ``cache`` — fields summed across caches (``cache.hits`` ...),
      except ``window``/``dirty_high_water`` which take the max;
    * ``host`` — the serving loop's already-prefixed ``host.*`` gauges,
      summed across loops; a live ``ping`` reply overrides them and
      adds ``host.sessions``/``host.threads`` and ``host.lat.*``;
    * ``network`` — numeric fields summed (``network.requests`` ...);
    * ``faults`` — armed-plane summaries as ``faults.fired.<rule>``;
    * ``transport`` — the totals dict as ``transport.<key>``;
    * ``spans`` / ``close_errors`` — bookkeeping scalars;
    * ``metrics.global`` — overlaid **last** (authoritative where a
      registry counter shadows a section aggregate), histograms
      contributing ``.count``/``.sum``/``.p50``/``.p95``.
    """
    out: dict[str, float] = {}
    for entry in (snap.get("cache") or {}).values():
        if isinstance(entry, dict):
            for fld, value in entry.items():
                _sum_into(out, f"cache.{fld}", value,
                          "max" if fld in _CACHE_MAX_FIELDS else "sum")
    for entry in (snap.get("host") or {}).values():
        if isinstance(entry, dict):
            for key, value in entry.items():
                _sum_into(out, key, value)
    for entry in (snap.get("network") or {}).values():
        if isinstance(entry, dict):
            for fld, value in entry.items():
                _sum_into(out, f"network.{fld}", value)
    for entry in (snap.get("faults") or {}).values():
        if isinstance(entry, dict):
            for rule, value in entry.items():
                _sum_into(out, f"faults.fired.{rule}", value)
    for key, value in (snap.get("transport") or {}).get("totals",
                                                        {}).items():
        _sum_into(out, f"transport.{key}", value)
    spans_info = snap.get("spans") or {}
    _sum_into(out, "spans.buffered", spans_info.get("buffered", 0))
    _sum_into(out, "spans.dropped", spans_info.get("dropped", 0))
    _sum_into(out, "close_errors.count",
              (snap.get("close_errors") or {}).get("count", 0))
    if ping:
        for key, value in (ping.get("host") or {}).items():
            if isinstance(value, (int, float)):
                out[key] = value  # live beats the section aggregate
        for key, value in (ping.get("lat") or {}).items():
            if isinstance(value, (int, float)):
                out[f"host.lat.{key}"] = value
        for key in ("sessions", "threads"):
            if isinstance(ping.get(key), (int, float)):
                out[f"host.{key}"] = ping[key]
    metrics = (snap.get("metrics") or {}).get("global") or {}
    out.update(_flat_metrics(metrics))
    return out


def flatten_scopes(snap: dict[str, Any]) -> dict[str, dict[str, float]]:
    """Per-container flat views: scoped registry metrics (e.g. the
    ``host.respawns`` storm counter) merged with per-open ``file.*``
    stats (collector keys strip their ``#N`` uniquifier)."""
    out: dict[str, dict[str, float]] = {}
    for scope, metrics in ((snap.get("metrics") or {}).get("scopes")
                           or {}).items():
        out.setdefault(scope, {}).update(_flat_metrics(metrics))
    for key, entry in (snap.get("files") or {}).items():
        if not isinstance(entry, dict):
            continue
        scope = key.rsplit("#", 1)[0]
        flat = out.setdefault(scope, {})
        for fld, value in entry.items():
            _sum_into(flat, f"file.{fld}", value)
    return out


# ---------------------------------------------------------------------------
# Evidence
# ---------------------------------------------------------------------------

class Evidence:
    """A telemetry evidence bundle, loaded or captured, plus flat views."""

    def __init__(self, snapshot: dict[str, Any], *,
                 before: dict[str, Any] | None = None,
                 spans: list[dict[str, Any]] | None = None,
                 ping: dict[str, Any] | None = None,
                 chaos_report: dict[str, Any] | None = None,
                 meta: dict[str, Any] | None = None,
                 source: str = "") -> None:
        self.snapshot = snapshot or {}
        self.before = before
        self.spans = list(spans or [])
        self.ping = ping
        self.chaos_report = chaos_report
        self.meta = dict(meta or {})
        self.source = source
        self._flat: dict[str, float] | None = None
        self._flat_before: dict[str, float] | None = None
        self._scoped: dict[str, dict[str, float]] | None = None

    # -- flat views ----------------------------------------------------------

    @property
    def flat(self) -> dict[str, float]:
        if self._flat is None:
            self._flat = flatten_snapshot(self.snapshot, ping=self.ping)
        return self._flat

    @property
    def flat_before(self) -> dict[str, float] | None:
        """Flattened earlier snapshot (None = trend checks skip)."""
        if self.before is None:
            return None
        if self._flat_before is None:
            self._flat_before = flatten_snapshot(self.before)
        return self._flat_before

    @property
    def scoped(self) -> dict[str, dict[str, float]]:
        if self._scoped is None:
            self._scoped = flatten_scopes(self.snapshot)
        return self._scoped

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_bundle(cls, dirname: str) -> "Evidence":
        """Load a bundle directory written by ``afctl stats --export``
        (or any :meth:`Telemetry.export_bundle` caller)."""
        if not os.path.isdir(dirname):
            raise DoctorError(f"evidence bundle {dirname!r} is not a "
                              "directory")

        def read_json(name: str, required: bool = False):
            path = os.path.join(dirname, name)
            if not os.path.exists(path):
                if required:
                    raise DoctorError(
                        f"bundle {dirname!r} is missing {name}")
                return None
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    return json.load(fh)
            except ValueError as exc:
                raise DoctorError(f"bundle file {name} is not valid "
                                  f"JSON: {exc}") from None

        meta = read_json("meta.json") or {}
        if meta and meta.get("kind") not in (None, "af-evidence"):
            raise DoctorError(f"bundle {dirname!r} meta.json has kind "
                              f"{meta.get('kind')!r}, not 'af-evidence'")
        schema = meta.get("schema", BUNDLE_SCHEMA)
        if not isinstance(schema, int) or schema > BUNDLE_SCHEMA:
            raise DoctorError(
                f"bundle schema {schema!r} is newer than this doctor "
                f"understands ({BUNDLE_SCHEMA})")
        snapshot = read_json("snapshot.json", required=True)
        spans: list[dict[str, Any]] = []
        spans_path = os.path.join(dirname, "spans.jsonl")
        if os.path.exists(spans_path):
            with open(spans_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        doc = json.loads(line)
                    except ValueError:
                        continue  # one bad line must not sink the bundle
                    if isinstance(doc, dict):
                        spans.append(doc)
        return cls(snapshot,
                   before=read_json("snapshot_before.json"),
                   spans=spans,
                   ping=read_json("ping.json"),
                   chaos_report=read_json("chaos_report.json"),
                   meta=meta, source=f"bundle:{dirname}")

    @classmethod
    def capture_live(cls, path: str, *,
                     strategy: str = "process-control",
                     sample_bytes: int = 65536,
                     network: Any = None) -> "Evidence":
        """Capture a bundle from a live open of *path*.

        Runs a sample read under tracing, grabs before/after snapshots
        (so trend checks work on a single capture), and — when the open
        rides a pooled sentinel host — the channel-0 ``ping`` reply
        with the host's ``host.*`` gauges and queue-wait/service split.
        """
        from repro.core import open_active

        before = TELEMETRY.snapshot()
        was_tracing = TELEMETRY.tracing
        TELEMETRY.enable_tracing()
        ping = None
        try:
            with open_active(path, "rb", strategy=strategy,
                             network=network) as stream:
                stream.read(sample_bytes)
                host = getattr(getattr(stream, "session", None),
                               "host", None)
                if host is not None and getattr(host, "alive", False):
                    try:
                        ping = host.ping()
                    except Exception:
                        ping = None  # a dying host still yields evidence
        finally:
            TELEMETRY.tracing = was_tracing
        return cls(TELEMETRY.snapshot(), before=before,
                   spans=[span.to_dict() for span in TELEMETRY.spans()],
                   ping=ping, meta={"container": str(path)},
                   source=f"live:{path}")

    def export(self, dirname: str) -> dict[str, str]:
        """Persist this evidence as a bundle directory (plain files)."""
        os.makedirs(dirname, exist_ok=True)
        written: dict[str, str] = {}

        def emit(name: str, doc: Any) -> None:
            target = os.path.join(dirname, name)
            with open(target, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, default=str)
                fh.write("\n")
            written[name] = target

        emit("snapshot.json", self.snapshot)
        if self.before is not None:
            emit("snapshot_before.json", self.before)
        if self.spans:
            target = os.path.join(dirname, "spans.jsonl")
            with open(target, "w", encoding="utf-8") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span, sort_keys=True,
                                        default=str) + "\n")
            written["spans.jsonl"] = target
        if self.ping is not None:
            emit("ping.json", self.ping)
        if self.chaos_report is not None:
            emit("chaos_report.json", self.chaos_report)
        emit("meta.json", {"kind": "af-evidence", "schema": BUNDLE_SCHEMA,
                           "files": sorted(written),
                           **{k: v for k, v in self.meta.items()
                              if k not in ("kind", "schema", "files")}})
        return written


# ---------------------------------------------------------------------------
# Analyzer registry (entry-point style discovery over doctor/plugins/)
# ---------------------------------------------------------------------------

class Analyzer:
    """Base class: one diagnostic lens over an :class:`Evidence`."""

    #: Unique analyzer id (shown in reports; sort key for determinism).
    name = ""
    subsystem = "general"

    def analyze(self, evidence: Evidence) -> list[Finding]:
        raise NotImplementedError


#: plugin name -> factory(config) -> list[Analyzer]
_FACTORIES: dict[str, Callable[[dict[str, Any]], list[Analyzer]]] = {}
_PLUGINS_LOADED = False


def register(name: str):
    """Decorator: register an analyzer factory under *name*.

    The factory receives a config dict (currently ``{"checks_dir":
    str | None}``) and returns the analyzers it contributes.  Plugin
    modules call this at import time; :func:`build_analyzers` imports
    every module in :mod:`repro.doctor.plugins`, so dropping a new
    module there is the whole registration ceremony.
    """
    def wrap(factory: Callable[[dict[str, Any]], list[Analyzer]]):
        _FACTORIES[name] = factory
        return factory
    return wrap


def _load_plugins() -> None:
    global _PLUGINS_LOADED
    if _PLUGINS_LOADED:
        return
    from repro.doctor import plugins as pkg
    for info in pkgutil.iter_modules(pkg.__path__):
        importlib.import_module(f"{pkg.__name__}.{info.name}")
    _PLUGINS_LOADED = True


def build_analyzers(checks_dir: str | None = None) -> list[Analyzer]:
    """Every registered analyzer, deterministically ordered by name."""
    _load_plugins()
    config = {"checks_dir": checks_dir}
    out: list[Analyzer] = []
    for plugin in sorted(_FACTORIES):
        out.extend(_FACTORIES[plugin](config))
    out.sort(key=lambda a: a.name)
    names = [a.name for a in out]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DoctorError(f"duplicate analyzer names: {sorted(dupes)}")
    return out


# ---------------------------------------------------------------------------
# Running + reporting
# ---------------------------------------------------------------------------

def run_doctor(evidence: Evidence,
               checks_dir: str | None = None) -> dict[str, Any]:
    """Run every analyzer over *evidence*; return the structured report.

    The report's ``fingerprint`` covers schema + ordered findings +
    verdict and nothing wall-clock-dependent, so replaying the doctor
    over the same bundle is fingerprint-identical (the chaos engine's
    replay contract, applied to diagnostics).
    """
    analyzers = build_analyzers(checks_dir)
    findings: list[Finding] = []
    for analyzer in analyzers:
        found = analyzer.analyze(evidence)
        for finding in found:
            if finding.severity not in SEVERITIES:
                raise DoctorError(
                    f"analyzer {analyzer.name} produced invalid "
                    f"severity {finding.severity!r}")
        findings.extend(found)
    findings.sort(key=Finding.sort_key)
    rendered = [finding.to_dict() for finding in findings]
    summary = {sev: 0 for sev in SEVERITIES}
    for finding in findings:
        summary[finding.severity] += 1
    fingerprint: dict[str, Any] = {
        "schema": DOCTOR_SCHEMA,
        "findings": rendered,
        "clean": not findings,
    }
    digest = hashlib.sha256(
        json.dumps(fingerprint, sort_keys=True).encode()).hexdigest()[:16]
    fingerprint["digest"] = digest
    return {
        "schema": DOCTOR_SCHEMA,
        "source": evidence.source,
        "bundle": {key: evidence.meta[key]
                   for key in sorted(evidence.meta) if key != "files"},
        "analyzers": [analyzer.name for analyzer in analyzers],
        "findings": rendered,
        "summary": summary,
        "clean": not findings,
        "fingerprint": fingerprint,
    }


def render_report(report: dict[str, Any]) -> str:
    """The human summary tree (``--json`` bypasses this)."""
    lines: list[str] = []
    summary = report.get("summary") or {}
    total = sum(summary.values())
    if report.get("clean"):
        verdict = "clean"
    else:
        parts = [f"{summary[sev]} {sev}" for sev in SEVERITIES
                 if summary.get(sev)]
        verdict = f"{total} finding{'s' if total != 1 else ''} " \
                  f"({', '.join(parts)})"
    source = report.get("source") or "evidence"
    lines.append(f"doctor: {verdict} — {source} "
                 f"[{len(report.get('analyzers', []))} analyzers, "
                 f"fingerprint {report['fingerprint']['digest']}]")
    by_subsystem: dict[str, list[dict[str, Any]]] = {}
    for finding in report.get("findings", []):
        by_subsystem.setdefault(finding["subsystem"], []).append(finding)
    for subsystem in sorted(by_subsystem):
        lines.append(f"  {subsystem}:")
        for finding in by_subsystem[subsystem]:
            where = f" [{finding['scope']}]" if finding.get("scope") else ""
            lines.append(f"    [{finding['severity']}] "
                         f"{finding['check']}{where} — "
                         f"{finding['message']}")
            evidence = finding.get("evidence") or {}
            if evidence:
                detail = " ".join(f"{key}={value:g}"
                                  for key, value in evidence.items())
                lines.append(f"        evidence: {detail}")
            if finding.get("action"):
                lines.append(f"        action: {finding['action']}")
    return "\n".join(lines)
