"""The diagnostics engine: evidence in, ranked findings out.

Three layers, mirroring the chaos engine's declarative design:

* **Evidence** — a loaded telemetry bundle (merged snapshot, optional
  earlier snapshot for trend checks, optional span JSONL, optional
  chaos report, optional live-host ``ping`` reply), with a *flattened*
  view: every observable folded into one ``{dotted.key: number}`` dict
  (plus a per-container scoped variant) so checks reference stable
  names instead of walking nested snapshot shapes.

* **Analyzers** — objects with an ``analyze(evidence) -> [Finding]``
  method.  :func:`build_analyzers` lists them all: the declarative YAML
  checks (:mod:`repro.doctor.checks`) and the span-tree analyzers
  (:mod:`repro.doctor.spans`).

* **Report** — findings ranked by severity under a stable schema with
  a chaos-style deterministic ``fingerprint``: replaying the doctor
  over the same bundle yields an identical fingerprint, so "did this
  change what doctor sees" is one dict comparison.

Every flattened key has exactly one emitter: a registry metric, or a
field of one snapshot section (a stats dict, a dataclass, a ``ping``
reply).  The doctor keeps no list of its own: :func:`known_metric`
answers from the names those emitters spell, so a metric landed in the
runtime is a metric a check can name.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Any

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
    "known_metric",
    "Finding",
    "Evidence",
    "Analyzer",
    "build_analyzers",
    "run_doctor",
    "render_report",
    "flatten_sections",
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

#: Scalars of a ``ping`` reply flattened as ``host.<key>``.
_PING_SCALARS = ("sessions", "threads")

#: Fields of a snapshot's ``spans`` section flattened as ``spans.<key>``.
_SPAN_FIELDS = ("buffered", "dropped")


def flatten_sections(snap: dict[str, Any],
                     ping: dict[str, Any] | None = None
                     ) -> dict[str, dict[str, float]]:
    """Each emitter of one :meth:`Telemetry.snapshot`, flattened apart.

    Returns ``{emitter: {dotted.key: number}}``; no two emitters spell
    the same key, so :func:`flatten_snapshot` merges them as they are.

    * ``cache`` — :class:`~repro.core.cache.BlockCache` stats summed
      across caches (``cache.hits`` ...), except ``window`` and
      ``dirty_high_water``, which take the max;
    * ``host`` — the serving loops' ``host.*`` gauges, summed across
      loops; a live ``ping`` reply's ``host`` gauges replace them (the
      same emitter, read fresher, from the serving host itself);
    * ``ping`` — the rest of the reply: ``host.sessions``,
      ``host.threads`` and the latency split as ``host.lat.*``;
    * ``network`` — numeric fields summed (``network.requests`` ...);
    * ``faults`` — armed-plane summaries as ``faults.fired.<point>:<action>``;
    * ``transport`` — the totals as ``transport.<key>``;
    * ``spans`` — the span buffer's ``spans.buffered``/``spans.dropped``;
    * ``metrics`` — the global registry scope, each histogram as
      ``.count``/``.sum``/``.p50``/``.p95``.
    """
    out: dict[str, dict[str, float]] = {
        name: {} for name in ("cache", "host", "ping", "network", "faults",
                              "transport", "spans")}
    for entry in (snap.get("cache") or {}).values():
        if isinstance(entry, dict):
            for fld, value in entry.items():
                _sum_into(out["cache"], f"cache.{fld}", value,
                          "max" if fld in _CACHE_MAX_FIELDS else "sum")
    for entry in (snap.get("host") or {}).values():
        if isinstance(entry, dict):
            for key, value in entry.items():
                _sum_into(out["host"], key, value)
    for entry in (snap.get("network") or {}).values():
        if isinstance(entry, dict):
            for fld, value in entry.items():
                _sum_into(out["network"], f"network.{fld}", value)
    for entry in (snap.get("faults") or {}).values():
        if isinstance(entry, dict):
            for rule, value in entry.items():
                _sum_into(out["faults"], f"faults.fired.{rule}", value)
    for key, value in (snap.get("transport") or {}).get("totals",
                                                        {}).items():
        _sum_into(out["transport"], f"transport.{key}", value)
    spans_info = snap.get("spans") or {}
    for key in _SPAN_FIELDS:
        _sum_into(out["spans"], f"spans.{key}", spans_info.get(key, 0))
    if ping:
        for key, value in (ping.get("host") or {}).items():
            if isinstance(value, (int, float)):
                out["host"][key] = value
        for key, value in (ping.get("lat") or {}).items():
            if isinstance(value, (int, float)):
                out["ping"][f"host.lat.{key}"] = value
        for key in _PING_SCALARS:
            if isinstance(ping.get(key), (int, float)):
                out["ping"][f"host.{key}"] = ping[key]
    out["metrics"] = _flat_metrics(
        (snap.get("metrics") or {}).get("global") or {})
    return out


def flatten_snapshot(snap: dict[str, Any],
                     ping: dict[str, Any] | None = None) -> dict[str, float]:
    """Fold one :meth:`Telemetry.snapshot` (and a live host's ``ping``
    reply) into ``{dotted.key: number}``: the union of
    :func:`flatten_sections`."""
    out: dict[str, float] = {}
    for flat in flatten_sections(snap, ping).values():
        out.update(flat)
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
# The metric catalog, derived from the emitters.  The checks linter
# rejects a name outside it, so a typo'd check fails lint instead of
# silently never firing.
# ---------------------------------------------------------------------------

#: The one family whose suffix is open: a latency histogram per op name.
_OPEN_PREFIX = "transport.latency."


@functools.lru_cache(maxsize=None)
def _catalog() -> frozenset[str]:
    """Every fixed-name key the flattener can produce, plus the exact
    members of the families whose suffix varies by run."""
    from repro.core import faults, hostloop, resourcefaults
    from repro.core.cache import CACHE_STAT_KEYS
    from repro.core.fileobj import FileStats
    from repro.core.strategies import STRATEGIES
    from repro.core.telemetry import TRANSPORT_TOTAL_KEYS, load_metric_modules
    from repro.net.network import NetworkStats

    # With every metric-creating module imported, the global registry
    # spells every fixed registry name.
    load_metric_modules()

    def numeric(stats: Any) -> list[str]:
        return [key for key, value in asdict(stats).items()
                if isinstance(value, (int, float))]

    names = set(_flat_metrics(TELEMETRY.metrics.snapshot()["global"]))
    names.update(f"transport.{key}" for key in TRANSPORT_TOTAL_KEYS)
    names.update(f"cache.{key}" for key in CACHE_STAT_KEYS)
    names.update(hostloop.HOST_STAT_KEYS)
    names.update(f"host.lat.{key}" for key in hostloop.latency_split_stats())
    names.update(f"host.{key}" for key in _PING_SCALARS)
    names.update(f"network.{key}" for key in numeric(NetworkStats()))
    names.update(f"file.{key}" for key in numeric(FileStats()))
    names.update(f"spans.{key}" for key in _SPAN_FIELDS)
    for point, actions in faults._POINTS.items():
        for action in actions:
            names.add(f"faults.injected.{point}.{action}")
            names.add(f"faults.fired.{point}:{action}")
    names.update(f"faults.injected.resource.{action}"
                 for action in resourcefaults.RESOURCE_ACTIONS)
    names.update(f"sessions.opened.{strategy}" for strategy in STRATEGIES)
    return frozenset(name for name in names
                     if not name.startswith(_OPEN_PREFIX))


def known_metric(name: str) -> bool:
    """True when *name* is a key the flattener can produce."""
    return name in _catalog() or name.startswith(_OPEN_PREFIX)


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
# Analyzers
# ---------------------------------------------------------------------------

class Analyzer:
    """Base class: one diagnostic lens over an :class:`Evidence`."""

    #: Unique analyzer id (shown in reports; sort key for determinism).
    name = ""
    subsystem = "general"

    def analyze(self, evidence: Evidence) -> list[Finding]:
        raise NotImplementedError


def build_analyzers(checks_dir: str | None = None) -> list[Analyzer]:
    """Every analyzer the doctor runs, deterministically ordered by name:
    the declarative checks in *checks_dir* (default: the shipped ones)
    and the span-tree analyzers."""
    # Imported here: both modules build on this one's Analyzer.
    from repro.doctor import checks, spans
    out: list[Analyzer] = [
        *(checks.DeclarativeCheck(doc) for doc in checks.load_checks(
            checks_dir or checks.default_checks_dir())),
        spans.RetryDominatedOpens(),
        spans.QueueWaitSkew(),
        spans.ReadaheadCollapse(),
    ]
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
