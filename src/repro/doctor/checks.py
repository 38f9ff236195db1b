"""Declarative metric checks: threshold / ratio / trend rules as data.

Each ``doctor/checks/*.yaml`` file declares exactly one rule over the
flattened snapshot keys (:func:`repro.doctor.engine.known_metric`,
which answers from the names the runtime's emitters spell), parsed
with the same YAML subset the chaos engine's scenarios use.  A check is
the cheapest possible regression guard: once a counter lands, a
ten-line file encodes "this ratio going bad means the feature
regressed", and every future ``afctl doctor`` run enforces it.

Three rule types:

* ``threshold`` — compare one metric against a bound
  (``above`` / ``below`` / ``at_least`` / ``at_most``), optionally
  gated by a ``when`` condition on a second metric and optionally
  evaluated ``scope: container`` (once per container, for rules like
  the respawn storm);
* ``ratio`` — ``metric / over`` against a bound, skipped while the
  denominator is below ``min_denominator`` (no verdicts from noise);
* ``trend`` — the metric's delta between the bundle's earlier and
  later snapshots against ``delta_above`` / ``delta_at_least``,
  skipped when the bundle carries no ``snapshot_before.json``.

The linter runs at load time and rejects unknown keys and unknown
metric names outright — a typo'd check fails fast instead of shipping
as a rule that never fires.
"""

from __future__ import annotations

import os
from typing import Any

from repro.doctor.engine import (
    SEVERITIES,
    Analyzer,
    Evidence,
    Finding,
    known_metric,
)
from repro.errors import DoctorError
from repro.util import yamlite

__all__ = ["default_checks_dir", "load_checks", "lint_check",
           "DeclarativeCheck"]

#: Comparator key -> predicate(value, bound).
_COMPARATORS = {
    "above": lambda value, bound: value > bound,
    "below": lambda value, bound: value < bound,
    "at_least": lambda value, bound: value >= bound,
    "at_most": lambda value, bound: value <= bound,
}
_TREND_COMPARATORS = {"delta_above": "above", "delta_at_least": "at_least"}

_COMMON_KEYS = {"name", "type", "metric", "severity", "subsystem",
                "message", "action", "scope", "when"}
_ALLOWED_KEYS = {
    "threshold": _COMMON_KEYS | set(_COMPARATORS),
    "ratio": _COMMON_KEYS | set(_COMPARATORS) | {"over",
                                                 "min_denominator"},
    "trend": _COMMON_KEYS | set(_TREND_COMPARATORS),
}
_WHEN_KEYS = {"metric"} | set(_COMPARATORS)
_SCOPES = ("global", "container")


def default_checks_dir() -> str:
    """The shipped ``doctor/checks/`` directory."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "checks")


def _bound_of(doc: dict[str, Any], comparators: dict, where: str
              ) -> tuple[str, float]:
    """The single comparator key present in *doc* (lint: exactly one)."""
    present = [key for key in comparators if key in doc]
    if len(present) != 1:
        raise DoctorError(
            f"{where}: expected exactly one of "
            f"{sorted(comparators)}, got {sorted(present) or 'none'}")
    key = present[0]
    bound = doc[key]
    if isinstance(bound, bool) or not isinstance(bound, (int, float)):
        raise DoctorError(f"{where}: bound {key!r} must be a number, "
                          f"got {bound!r}")
    return key, float(bound)


def lint_check(doc: Any, where: str = "check") -> dict[str, Any]:
    """Validate one parsed check document; return it normalized.

    Raises :class:`DoctorError` naming *where* on any problem — unknown
    keys, unknown metrics, bad severity/type/scope, missing fields.
    """
    if not isinstance(doc, dict):
        raise DoctorError(f"{where}: check document must be a mapping")
    kind = doc.get("type")
    if kind not in _ALLOWED_KEYS:
        raise DoctorError(f"{where}: type must be one of "
                          f"{sorted(_ALLOWED_KEYS)}, got {kind!r}")
    unknown = set(doc) - _ALLOWED_KEYS[kind]
    if unknown:
        raise DoctorError(f"{where}: unknown keys for a {kind} check: "
                          f"{sorted(unknown)}")
    for required in ("name", "metric", "message"):
        if not isinstance(doc.get(required), str) or not doc[required]:
            raise DoctorError(f"{where}: missing required key "
                              f"{required!r}")
    severity = doc.get("severity", "warning")
    if severity not in SEVERITIES:
        raise DoctorError(f"{where}: severity must be one of "
                          f"{list(SEVERITIES)}, got {severity!r}")
    scope = doc.get("scope", "global")
    if scope not in _SCOPES:
        raise DoctorError(f"{where}: scope must be one of "
                          f"{list(_SCOPES)}, got {scope!r}")
    metrics = [doc["metric"]]
    if kind == "ratio":
        over = doc.get("over")
        if not isinstance(over, str) or not over:
            raise DoctorError(f"{where}: ratio check needs 'over'")
        metrics.append(over)
        min_den = doc.get("min_denominator", 1)
        if isinstance(min_den, bool) or not isinstance(min_den,
                                                       (int, float)) \
                or min_den <= 0:
            raise DoctorError(f"{where}: min_denominator must be a "
                              f"positive number, got {min_den!r}")
        if scope != "global":
            raise DoctorError(f"{where}: ratio checks are global-only")
    if kind == "trend":
        _bound_of(doc, _TREND_COMPARATORS, where)
        if scope != "global":
            raise DoctorError(f"{where}: trend checks are global-only")
    else:
        _bound_of(doc, _COMPARATORS, where)
    when = doc.get("when")
    if when is not None:
        if not isinstance(when, dict):
            raise DoctorError(f"{where}: 'when' must be a mapping")
        unknown = set(when) - _WHEN_KEYS
        if unknown:
            raise DoctorError(f"{where}: unknown keys in 'when': "
                              f"{sorted(unknown)}")
        if not isinstance(when.get("metric"), str) or not when["metric"]:
            raise DoctorError(f"{where}: 'when' needs a metric")
        metrics.append(when["metric"])
        _bound_of(when, _COMPARATORS, f"{where} (when)")
    for metric in metrics:
        if not known_metric(metric):
            raise DoctorError(
                f"{where}: unknown metric {metric!r} — no emitter "
                "produces this flattened-snapshot key")
    return doc


def load_checks(dirname: str) -> list[dict[str, Any]]:
    """Parse + lint every ``*.yaml`` under *dirname*, sorted by file."""
    if not os.path.isdir(dirname):
        raise DoctorError(f"checks directory {dirname!r} does not exist")
    checks: list[dict[str, Any]] = []
    names: set[str] = set()
    for entry in sorted(os.listdir(dirname)):
        if not entry.endswith((".yaml", ".yml")):
            continue
        path = os.path.join(dirname, entry)
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            doc = yamlite.loads(text)
        except yamlite.YamliteError as exc:
            raise DoctorError(f"{entry}: {exc}") from None
        doc = lint_check(doc, where=entry)
        if doc["name"] in names:
            raise DoctorError(f"{entry}: duplicate check name "
                              f"{doc['name']!r}")
        names.add(doc["name"])
        checks.append(doc)
    return checks


class DeclarativeCheck(Analyzer):
    """One linted YAML rule, evaluated against an evidence bundle.

    Missing metrics read as ``0.0`` (a counter that never incremented
    was never observed misbehaving); ratio checks abstain below their
    ``min_denominator``; trend checks abstain without a before
    snapshot.  Abstaining is silence, not a finding.
    """

    def __init__(self, doc: dict[str, Any]) -> None:
        self.doc = doc
        self.name = doc["name"]
        self.subsystem = doc.get("subsystem", "general")
        self.severity = doc.get("severity", "warning")

    def _when_holds(self, flat: dict[str, float]) -> tuple[bool,
                                                           dict[str, float]]:
        when = self.doc.get("when")
        if when is None:
            return True, {}
        key, bound = _bound_of(when, _COMPARATORS, self.name)
        value = float(flat.get(when["metric"], 0.0))
        return (_COMPARATORS[key](value, bound),
                {when["metric"]: value})

    def _finding(self, evidence_keys: dict[str, float],
                 scope: str = "") -> Finding:
        return Finding(check=self.name, severity=self.severity,
                       subsystem=self.subsystem,
                       message=self.doc["message"],
                       action=self.doc.get("action", ""),
                       evidence=evidence_keys, scope=scope)

    def analyze(self, evidence: Evidence) -> list[Finding]:
        doc = self.doc
        kind = doc["type"]
        metric = doc["metric"]
        if kind == "trend":
            before = evidence.flat_before
            if before is None:
                return []
            key, bound = _bound_of(doc, _TREND_COMPARATORS, self.name)
            now = float(evidence.flat.get(metric, 0.0))
            delta = now - float(before.get(metric, 0.0))
            if _COMPARATORS[_TREND_COMPARATORS[key]](delta, bound):
                return [self._finding({metric: now,
                                       f"{metric}.delta": delta})]
            return []
        key, bound = _bound_of(doc, _COMPARATORS, self.name)
        predicate = _COMPARATORS[key]
        if kind == "ratio":
            flat = evidence.flat
            holds, gate = self._when_holds(flat)
            if not holds:
                return []
            num = float(flat.get(metric, 0.0))
            den = float(flat.get(doc["over"], 0.0))
            if den < float(doc.get("min_denominator", 1)):
                return []
            if predicate(num / den, bound):
                return [self._finding({metric: num, doc["over"]: den,
                                       "ratio": num / den, **gate})]
            return []
        # threshold
        if doc.get("scope", "global") == "container":
            findings = []
            for scope in sorted(evidence.scoped):
                flat = evidence.scoped[scope]
                holds, gate = self._when_holds(flat)
                value = float(flat.get(metric, 0.0))
                if holds and predicate(value, bound):
                    findings.append(self._finding({metric: value, **gate},
                                                  scope=scope))
            return findings
        flat = evidence.flat
        holds, gate = self._when_holds(flat)
        if not holds:
            return []
        value = float(flat.get(metric, 0.0))
        if predicate(value, bound):
            return [self._finding({metric: value, **gate})]
        return []
