"""Declarative chaos scenarios: timed injections + asserted invariants.

PR 3 made transport faults *schedulable*; this module makes whole chaos
experiments *declarative*.  A scenario file describes, without code:

* a **workload** — one of the registered drivers below (sequential
  reads, seeded writes, a read swarm on a pooled host, local writes);
* a **timeline** — seeded injections, each ``{at, point, action,
  target, params}``, covering both the transport fault plane
  (:mod:`repro.core.faults`) and the resource faults
  (:mod:`repro.core.resourcefaults`) delivered to live hosts over the
  ``chaos`` control op;
* **invariants** — ``data-identical``, ``no-hung-futures``,
  ``recovers-within``, and counter-threshold expressions evaluated
  against the telemetry snapshot delta (e.g.
  ``"faults.injected.send.kill >= 1"``).

Scenario files are a small YAML subset parsed by the dependency-free
:mod:`repro.util.yamlite` loader (shared with the doctor's declarative
checks); JSON documents are accepted as-is.  The subset: two-space
indentation, ``key: value`` mappings, ``- item`` sequences (including
sequences of mappings), scalars (int/float/bool/null/quoted strings),
and ``#`` comments.

Safety rails are built into the runner, not bolted on:

* **dry-run** takes a structurally different path — it lints and
  resolves the timeline but never constructs a workload, a fault
  plane, or a host, so zero injections is a property of the code
  shape, not of flag checks sprinkled through it;
* the **linter** refuses destructive actions (kill, eof, corrupt,
  partition, every resource fault) with unbounded ``times`` or
  probabilistic ``p`` unless the caller is an in-repo test
  (``allow_unbounded=True`` — the CLI never passes it), and caps the
  total scheduled injection duration at
  :data:`~repro.core.policy.CHAOS_MAX_TOTAL_INJECTION_S`;
* pid-touching is delegated to
  :func:`repro.core.resourcefaults.guarded_kill`, which refuses any
  pid not owned by a live :class:`~repro.core.runner.SentinelHost`.

The report's ``fingerprint`` is the deterministic core — resolved
plan, invariant verdicts, pass/fail — with wall-clock measurements
segregated under ``timing``, so "same seed, same report" is a
comparison of fingerprints.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core import policy
from repro.core.faults import FaultPlane, _POINTS
from repro.core.telemetry import TELEMETRY, MetricsRegistry
from repro.errors import DiskFullError, ScenarioError
from repro.util import yamlite

__all__ = [
    "Injection",
    "Invariant",
    "Scenario",
    "load_scenario",
    "load_scenario_file",
    "parse_scenario",
    "lint_scenario",
    "ScenarioRunner",
    "render_report",
    "WORKLOADS",
    "DESTRUCTIVE_ACTIONS",
]

#: Valid values for an injection's ``point`` — the transport plane's
#: points plus ``resource`` (delivered via the ``chaos`` control op).
SCENARIO_POINTS = dict(_POINTS)
SCENARIO_POINTS["resource"] = ("cpu-hog", "memory-pressure",
                               "fd-exhaustion", "disk-full")

#: Actions the linter treats as destructive: these may not carry an
#: unbounded ``times`` or a probabilistic ``p`` outside of tests.
DESTRUCTIVE_ACTIONS = frozenset(
    ("kill", "eof", "corrupt", "partition") + SCENARIO_POINTS["resource"])

_TARGETS = ("host", "network", "pool")

_COUNTER_EXPR = re.compile(
    r"^(?P<name>[\w.\-]+)\s*(?P<op>>=|<=|==|!=|>|<)\s*"
    r"(?P<num>-?\d+(?:\.\d+)?)$")

_COMPARATORS: dict[str, Callable[[float, float], bool]] = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


# ---------------------------------------------------------------------------
# Loading (the YAML-subset parser itself lives in repro.util.yamlite)
# ---------------------------------------------------------------------------

def load_scenario(text: str) -> dict[str, Any]:
    """Parse scenario *text* (YAML subset, or JSON if it starts ``{``)."""
    try:
        doc = yamlite.loads(text)
    except yamlite.YamliteError as exc:
        raise ScenarioError(str(exc)) from None
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    return doc


def load_scenario_file(path: str) -> "Scenario":
    with open(path, "r", encoding="utf-8") as handle:
        doc = load_scenario(handle.read())
    doc.setdefault("name", os.path.splitext(os.path.basename(path))[0])
    return parse_scenario(doc)


# ---------------------------------------------------------------------------
# Scenario model
# ---------------------------------------------------------------------------

@dataclass
class Injection:
    """One timeline entry: what to inject, where, and when."""

    at: float
    point: str
    action: str
    target: str = "host"
    params: dict[str, Any] = field(default_factory=dict)

    def plan_entry(self) -> dict[str, Any]:
        """The deterministic, fingerprint-stable view of this entry."""
        return {"at": self.at, "point": self.point, "action": self.action,
                "target": self.target,
                "params": {k: self.params[k] for k in sorted(self.params)}}


@dataclass
class Invariant:
    """One asserted property: a named check or a counter expression."""

    name: str
    value: Any = None

    @property
    def label(self) -> str:
        if self.name == "recovers-within":
            return f"recovers-within {self.value}s"
        return self.name


@dataclass
class Scenario:
    """A parsed scenario: workload + timeline + invariants."""

    name: str
    seed: int
    workload: dict[str, Any]
    timeline: list[Injection]
    invariants: list[Invariant]
    description: str = ""


def parse_scenario(doc: dict[str, Any]) -> Scenario:
    """Validate the *shape* of a scenario document (lint checks values)."""
    unknown = set(doc) - {"name", "description", "seed", "workload",
                          "timeline", "invariants"}
    if unknown:
        raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
    name = str(doc.get("name") or "unnamed")
    seed = int(doc.get("seed") or 0)
    workload = doc.get("workload")
    if not isinstance(workload, dict) or "kind" not in workload:
        raise ScenarioError("scenario needs a workload mapping with 'kind'")
    timeline_doc = doc.get("timeline") or []
    if not isinstance(timeline_doc, list):
        raise ScenarioError("'timeline' must be a sequence")
    timeline: list[Injection] = []
    for i, entry in enumerate(timeline_doc):
        if not isinstance(entry, dict):
            raise ScenarioError(f"timeline[{i}] must be a mapping")
        missing = {"point", "action"} - set(entry)
        if missing:
            raise ScenarioError(f"timeline[{i}] missing {sorted(missing)}")
        params = entry.get("params") or {}
        if not isinstance(params, dict):
            raise ScenarioError(f"timeline[{i}].params must be a mapping")
        timeline.append(Injection(
            at=float(entry.get("at") or 0.0), point=str(entry["point"]),
            action=str(entry["action"]),
            target=str(entry.get("target") or "host"), params=dict(params)))
    invariants_doc = doc.get("invariants") or []
    if not isinstance(invariants_doc, list):
        raise ScenarioError("'invariants' must be a sequence")
    invariants: list[Invariant] = []
    for i, entry in enumerate(invariants_doc):
        if isinstance(entry, str):
            if entry == "recovers-within":
                invariants.append(Invariant(
                    "recovers-within", policy.CHAOS_RECOVERS_DEFAULT_S))
            elif _COUNTER_EXPR.match(entry):
                invariants.append(Invariant("counter", entry))
            else:
                invariants.append(Invariant(entry))
        elif isinstance(entry, dict) and len(entry) == 1:
            ((key, value),) = entry.items()
            invariants.append(Invariant(str(key), value))
        else:
            raise ScenarioError(
                f"invariants[{i}] must be a string or a one-key mapping")
    return Scenario(name=name, seed=seed, workload=dict(workload),
                    timeline=timeline, invariants=invariants,
                    description=str(doc.get("description") or ""))


# ---------------------------------------------------------------------------
# Linter (the blast-radius gate: run/dry-run refuse scenarios that fail)
# ---------------------------------------------------------------------------

def lint_scenario(scenario: Scenario, *,
                  allow_unbounded: bool = False) -> list[str]:
    """Every problem found, as human-readable strings (empty = clean).

    ``allow_unbounded`` relaxes only the bounded-``times``/``p == 1``
    requirement on destructive actions; it exists for in-repo tests
    that explore probabilistic schedules and is never set by the CLI.
    """
    problems: list[str] = []
    kind = str(scenario.workload.get("kind", ""))
    if kind not in WORKLOADS:
        problems.append(f"workload: unknown kind {kind!r} "
                        f"(expected one of {sorted(WORKLOADS)})")
    total_seconds = 0.0
    for i, inj in enumerate(scenario.timeline):
        where = f"timeline[{i}] ({inj.point}:{inj.action})"
        actions = SCENARIO_POINTS.get(inj.point)
        if actions is None:
            problems.append(f"{where}: unknown point {inj.point!r}")
            continue
        if inj.action not in actions:
            problems.append(f"{where}: action {inj.action!r} is not valid "
                            f"at point {inj.point!r}")
            continue
        if inj.at < 0:
            problems.append(f"{where}: 'at' must be >= 0")
        if inj.target not in _TARGETS:
            problems.append(f"{where}: unknown target {inj.target!r} "
                            f"(expected one of {_TARGETS})")
        seconds = float(inj.params.get("seconds") or 0.0)
        if inj.point == "resource":
            if seconds > policy.CHAOS_MAX_FAULT_S:
                problems.append(
                    f"{where}: seconds={seconds} exceeds the per-fault "
                    f"cap CHAOS_MAX_FAULT_S={policy.CHAOS_MAX_FAULT_S}")
            total_seconds += seconds or 1.0  # resource default duration
        else:
            times = inj.params.get("times", 1)
            p = float(inj.params.get("p", 1.0))
            if inj.action in DESTRUCTIVE_ACTIONS and not allow_unbounded:
                if times is None or int(times) <= 0:
                    problems.append(
                        f"{where}: destructive action needs a bounded "
                        "'times' (unbounded rules are test-only)")
                if p != 1.0:
                    problems.append(
                        f"{where}: destructive action needs p == 1.0 "
                        "(probabilistic rules are test-only)")
            bound = int(times) if times else 1
            total_seconds += seconds * max(1, bound)
    if total_seconds > policy.CHAOS_MAX_TOTAL_INJECTION_S:
        problems.append(
            f"timeline: total scheduled injection duration "
            f"{total_seconds:.1f}s exceeds CHAOS_MAX_TOTAL_INJECTION_S="
            f"{policy.CHAOS_MAX_TOTAL_INJECTION_S}")
    for i, inv in enumerate(scenario.invariants):
        if inv.name == "counter":
            if not _COUNTER_EXPR.match(str(inv.value or "")):
                problems.append(f"invariants[{i}]: unparseable counter "
                                f"expression {inv.value!r}")
        elif inv.name == "recovers-within":
            if not isinstance(inv.value, (int, float)) or inv.value <= 0:
                problems.append(f"invariants[{i}]: recovers-within needs "
                                "a positive number of seconds")
        elif inv.name not in ("data-identical", "no-hung-futures"):
            problems.append(f"invariants[{i}]: unknown invariant "
                            f"{inv.name!r}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _content(seed: int, size: int) -> bytes:
    """Position-dependent bytes: misplaced blocks show as corruption."""
    return bytes((7 * i + 13 * seed + (i >> 8)) % 256 for i in range(size))


class Workload:
    """One scenario workload: rig it, drive it, verify it, tear it down.

    Subclasses populate ``self.streams`` (open active files, used for
    the hung-futures check and host targeting) and ``self.network``
    (if the rig has one, used for network-point arming).
    """

    kind = ""

    def __init__(self, params: dict[str, Any], seed: int,
                 dirname: str) -> None:
        self.params = params
        self.seed = seed
        self.dirname = dirname
        self.streams: list[Any] = []
        self.network: Any = None

    def setup(self) -> None:
        raise NotImplementedError

    def drive(self) -> None:
        raise NotImplementedError

    def verify(self) -> tuple[bool, str]:
        raise NotImplementedError

    def hosts(self) -> list[Any]:
        """The live sentinel hosts this workload's sessions run on."""
        out: list[Any] = []
        seen: set[int] = set()
        for stream in self.streams:
            host = getattr(getattr(stream, "session", None), "host", None)
            if host is not None and id(host) not in seen \
                    and getattr(host, "alive", False):
                seen.add(id(host))
                out.append(host)
        return out

    def hung_futures(self) -> int:
        total = 0
        for stream in self.streams:
            session = getattr(stream, "session", None)
            channel = getattr(session, "channel", None)
            if channel is not None and not channel.dead:
                total += int(channel.counters.snapshot()["in_flight"])
        return total

    def teardown(self) -> None:
        for stream in self.streams:
            try:
                stream.close()
            except Exception:
                pass  # best-effort: the rig is being torn down anyway
        self.streams = []

    # -- shared rig helpers --------------------------------------------------

    def _remote_rig(self, content: bytes, **sentinel_params):
        """One simulated origin + one remote active file, per workload."""
        from repro.core import create_active
        from repro.net import Address, FileServer, Network

        self.network = Network()
        server = self.network.bind(Address("files.chaos", 7000), FileServer())
        server.put_file("data/blob.bin", content)
        path = os.path.join(self.dirname, "blob.af")
        create_active(path, "repro.sentinels.remotefile:RemoteFileSentinel",
                      params={"address": "files.chaos:7000",
                              "path": "data/blob.bin",
                              "retry_seed": self.seed, **sentinel_params},
                      meta={"data": "memory"})
        return server, path

    def _read_all(self, stream, chunk: int) -> bytes:
        out = bytearray()
        while True:
            piece = stream.read(chunk)
            if not piece:
                return bytes(out)
            out += piece


class SequentialReadWorkload(Workload):
    """Read a remote file end to end; the bytes must match the origin."""

    kind = "sequential-read"

    def setup(self) -> None:
        from repro.core import open_active
        size = int(self.params.get("bytes", 64 * 1024))
        self.content = _content(self.seed, size)
        _, path = self._remote_rig(
            self.content, cache="memory",
            block_size=int(self.params.get("block_size", 4096)),
            retries=int(self.params.get("retries", 8)))
        self.streams = [open_active(path, "rb", strategy="process-control",
                                    network=self.network)]

    def drive(self) -> None:
        self.result = self._read_all(self.streams[0],
                                     int(self.params.get("chunk", 4096)))

    def verify(self) -> tuple[bool, str]:
        if self.result == self.content:
            return True, f"{len(self.result)} bytes byte-identical"
        return False, (f"read {len(self.result)} bytes, "
                       f"expected {len(self.content)}")


class SeededWriteWorkload(Workload):
    """Seeded random writes to a remote file; the origin must converge."""

    kind = "seeded-write"

    def setup(self) -> None:
        from repro.core import open_active
        size = int(self.params.get("bytes", 8 * 1024))
        blank = bytes(size)
        self.expected = bytearray(blank)
        sentinel: dict[str, Any] = {
            "cache": "none", "retries": int(self.params.get("retries", 6))}
        if self.params.get("writeback"):
            sentinel.update(cache="memory", queue_writes=True,
                            writeback=True)
        self.server, path = self._remote_rig(blank, **sentinel)
        self.streams = [open_active(path, "r+b", strategy="process-control",
                                    network=self.network)]

    def drive(self) -> None:
        stream = self.streams[0]
        rng = random.Random(self.seed)
        chunk = int(self.params.get("chunk", 128))
        size = len(self.expected)
        for _ in range(int(self.params.get("writes", 16))):
            offset = rng.randrange(0, max(1, size - chunk))
            data = bytes(rng.randrange(256) for _ in range(chunk))
            stream.seek(offset)
            stream.write(data)
            self.expected[offset:offset + chunk] = data
        stream.flush()

    def verify(self) -> tuple[bool, str]:
        got = self.server.get_file("data/blob.bin")
        if got == bytes(self.expected):
            return True, f"origin converged on {len(got)} bytes"
        return False, "origin bytes diverged from the application's writes"


class SwarmReadWorkload(Workload):
    """N concurrent opens of one local container on the pooled host."""

    kind = "swarm-read"

    def setup(self) -> None:
        from repro.core import create_active, open_active
        size = int(self.params.get("bytes", 16 * 1024))
        self.content = _content(self.seed, size)
        path = os.path.join(self.dirname, "swarm.af")
        create_active(path, "repro.sentinels.null:NullFilterSentinel",
                      data=self.content)
        self.streams = [
            open_active(path, "rb", strategy="process-control")
            for _ in range(int(self.params.get("sessions", 4)))]

    def drive(self) -> None:
        chunk = int(self.params.get("chunk", 4096))
        results: list[bytes | None] = [None] * len(self.streams)
        errors: list[BaseException] = []

        def reader(i: int, stream) -> None:
            try:
                results[i] = self._read_all(stream, chunk)
            except BaseException as exc:
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i, stream),
                                    name=f"af-swarm-{i}", daemon=True)
                   for i, stream in enumerate(self.streams)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(policy.CHAOS_WORKLOAD_TIMEOUT)
        if errors:
            raise errors[0]
        self.results = results

    def verify(self) -> tuple[bool, str]:
        bad = sum(1 for r in self.results if r != self.content)
        if bad:
            return False, f"{bad}/{len(self.results)} sessions diverged"
        return True, (f"{len(self.results)} concurrent sessions all "
                      "byte-identical")


class LocalWriteWorkload(Workload):
    """Seeded writes to a persistent local data part, flushed to disk.

    The flush is what the ``disk-full`` fault targets: an ENOSPC'd
    flush leaves the buffer dirty, and this workload retries it (with
    :data:`~repro.core.policy.CHAOS_RETRY_S` backoff) until the quota
    reverts — the application-visible contract of a real full disk.
    """

    kind = "local-write"

    def setup(self) -> None:
        from repro.core import create_active, open_active
        size = int(self.params.get("bytes", 4 * 1024))
        self.path = os.path.join(self.dirname, "journal.af")
        create_active(self.path, "repro.sentinels.null:NullFilterSentinel",
                      data=bytes(size))
        self.expected = bytearray(size)
        self.streams = [open_active(self.path, "r+b",
                                    strategy="process-control")]

    def drive(self) -> None:
        stream = self.streams[0]
        rng = random.Random(self.seed)
        chunk = int(self.params.get("chunk", 256))
        size = len(self.expected)
        for _ in range(int(self.params.get("writes", 8))):
            offset = rng.randrange(0, max(1, size - chunk))
            data = bytes(rng.randrange(256) for _ in range(chunk))
            stream.seek(offset)
            stream.write(data)
            self.expected[offset:offset + chunk] = data
        deadline = policy.Deadline.after(policy.CHAOS_WORKLOAD_TIMEOUT)
        while True:
            try:
                stream.flush()
                return
            except DiskFullError:
                deadline.check("flush under injected disk-full")
                time.sleep(policy.CHAOS_RETRY_S)

    def verify(self) -> tuple[bool, str]:
        from repro.core.container import Container
        self.teardown()  # close persists; verify the on-disk data part
        got = Container.load(self.path).data
        if got == bytes(self.expected):
            return True, f"on-disk data part converged on {len(got)} bytes"
        return False, "on-disk data part diverged from the writes"


class FanoutReadWorkload(Workload):
    """One coherent writer + N subscribed coherent readers of one remote
    file, all on the pooled host's coherence domain.

    Every write through the writer is push-installed into each reader's
    cache and lands one record in each subscriber queue; after the
    drive, every reader (and the origin) must be byte-identical to the
    writer's view and every subscriber must have seen every update.
    """

    kind = "fanout-read"

    def setup(self) -> None:
        from repro.core import open_active
        size = int(self.params.get("bytes", 16 * 1024))
        self.content = _content(self.seed, size)
        self.expected = bytearray(self.content)
        self.server, path = self._remote_rig(
            self.content, cache="memory", coherent=True,
            block_size=int(self.params.get("block_size", 4096)),
            retries=int(self.params.get("retries", 8)))
        readers = int(self.params.get("readers", 3))
        self.streams = [open_active(path, "r+b", strategy="process-control",
                                    network=self.network)]
        self.streams += [open_active(path, "rb", strategy="process-control",
                                     network=self.network)
                         for _ in range(readers)]
        self.subs: list[int] = []
        for stream in self.streams[1:]:
            stream.read(1024)  # warm the cache; the open granted a lease
            self.subs.append(stream.subscribe())

    def drive(self) -> None:
        writer = self.streams[0]
        rng = random.Random(self.seed)
        chunk = int(self.params.get("chunk", 512))
        size = len(self.expected)
        for _ in range(int(self.params.get("writes", 6))):
            offset = rng.randrange(0, max(1, size - chunk))
            data = bytes(rng.randrange(256) for _ in range(chunk))
            writer.seek(offset)
            writer.write(data)
            self.expected[offset:offset + chunk] = data
        self.records = 0
        for stream, sub in zip(self.streams[1:], self.subs):
            self.records += len(stream.poll(sub, max_items=256))

    def verify(self) -> tuple[bool, str]:
        expected = bytes(self.expected)
        diverged = 0
        for stream in self.streams[1:]:
            stream.seek(0)
            if self._read_all(stream, 4096) != expected:
                diverged += 1
        if diverged:
            return False, (f"{diverged}/{len(self.subs)} subscribed "
                           "reader(s) diverged after heal")
        if self.server.get_file("data/blob.bin") != expected:
            return False, "origin bytes diverged from the writer's updates"
        want = int(self.params.get("writes", 6)) * len(self.subs)
        if self.records != want:
            return False, (f"subscribers saw {self.records} update "
                           f"records, expected {want}")
        return True, (f"{len(self.subs)} subscribed readers byte-identical "
                      f"after {want // max(len(self.subs), 1)} fanned-out "
                      f"writes ({self.records} update records)")


WORKLOADS: dict[str, type[Workload]] = {
    w.kind: w for w in (SequentialReadWorkload, SeededWriteWorkload,
                        SwarmReadWorkload, LocalWriteWorkload,
                        FanoutReadWorkload)
}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

class ScenarioRunner:
    """Arm, drive, and judge one scenario; emit a structured report.

    ``dry_run=True`` takes a separate code path that never builds a
    workload or a fault plane — the "zero injections" guarantee is the
    absence of the machinery, not a flag threaded through it.
    """

    def __init__(self, scenario: Scenario, *, seed: int | None = None,
                 dry_run: bool = False,
                 allow_unbounded: bool = False) -> None:
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else int(seed)
        self.dry_run = dry_run
        self.allow_unbounded = allow_unbounded

    # -- shared pieces -------------------------------------------------------

    def _plan(self) -> list[dict[str, Any]]:
        """The resolved timeline, ordered by (at, declaration order)."""
        ordered = sorted(enumerate(self.scenario.timeline),
                         key=lambda pair: (pair[1].at, pair[0]))
        plan = []
        for _, inj in ordered:
            entry = inj.plan_entry()
            entry["resolved_target"] = {
                "host": "all-session-hosts",
                "pool": "host-pool",
                "network": "workload-network",
            }[inj.target] if inj.target in _TARGETS else "?"
            plan.append(entry)
        return plan

    def _fingerprint(self, plan, invariants, passed) -> dict[str, Any]:
        return {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "dry_run": self.dry_run,
            "plan": plan,
            "invariants": [[inv["name"], inv["ok"]] for inv in invariants],
            "passed": passed,
        }

    # -- dry run -------------------------------------------------------------

    def _dry_run(self, problems: list[str]) -> dict[str, Any]:
        plan = self._plan()
        invariants = [{"name": inv.label, "ok": None,
                       "detail": "not evaluated (dry run)"}
                      for inv in self.scenario.invariants]
        passed = not problems
        report = {
            "scenario": self.scenario.name,
            "seed": self.seed,
            "dry_run": True,
            "workload": dict(self.scenario.workload),
            "plan": plan,
            "lint": problems,
            "invariants": invariants,
            "passed": passed,
            "injections_performed": 0,
        }
        report["fingerprint"] = self._fingerprint(
            plan, [{"name": inv["name"], "ok": inv["ok"]}
                   for inv in invariants], passed)
        return report

    # -- live run ------------------------------------------------------------

    def run(self) -> dict[str, Any]:
        problems = lint_scenario(self.scenario,
                                 allow_unbounded=self.allow_unbounded)
        if self.dry_run:
            return self._dry_run(problems)
        if problems:
            raise ScenarioError(
                "scenario failed lint:\n  " + "\n  ".join(problems))

        from repro.core.runner import HOST_POOL

        workload_class = WORKLOADS[str(self.scenario.workload["kind"])]
        dirname = tempfile.mkdtemp(prefix="af-chaos-")
        workload = workload_class(
            {k: v for k, v in self.scenario.workload.items() if k != "kind"},
            self.seed, dirname)
        plane = FaultPlane(self.seed)
        plan = self._plan()
        deliveries: list[dict[str, Any]] = []
        baseline = TELEMETRY.metrics.snapshot()

        ordered = sorted(enumerate(self.scenario.timeline),
                         key=lambda pair: (pair[1].at, pair[0]))
        immediate = [inj for _, inj in ordered
                     if inj.at == 0 and inj.point != "resource"]
        timed = [inj for _, inj in ordered
                 if inj.at > 0 or inj.point == "resource"]

        # Rules firing "at 0" are armed before the first frame moves, so
        # their position in the op sequence comes from `after`/`times`,
        # not from a race with the workload — the deterministic path.
        for inj in immediate:
            self._arm_rule(plane, inj)
            deliveries.append({"at": inj.at, "point": inj.point,
                               "action": inj.action, "mode": "pre-armed"})

        prior_pool_faults = HOST_POOL.faults
        HOST_POOL.faults = plane
        last_delivery = [0.0]
        try:
            workload.setup()
            if workload.network is not None:
                plane.arm_network(workload.network)
            for host in workload.hosts():
                plane.arm_host(host)

            t0 = time.monotonic()
            # Resource faults "at 0" land before the first op, like the
            # pre-armed rules: delivered from here, they cannot race a
            # kill the workload's first ops trigger.
            self._inject_timed([inj for inj in timed if inj.at == 0], t0,
                               plane, workload, deliveries, last_delivery)
            injector = threading.Thread(
                target=self._inject_timed,
                args=([inj for inj in timed if inj.at > 0], t0, plane,
                      workload, deliveries, last_delivery),
                name="af-chaos-injector", daemon=True)
            injector.start()

            workload_error: list[BaseException] = []

            def drive() -> None:
                try:
                    workload.drive()
                except BaseException as exc:
                    workload_error.append(exc)

            driver = threading.Thread(target=drive, name="af-chaos-drive",
                                      daemon=True)
            driver.start()
            driver.join(policy.CHAOS_WORKLOAD_TIMEOUT)
            hung = driver.is_alive()
            end = time.monotonic()
            injector.join(policy.CHAOS_OP_TIMEOUT)

            invariants = self._judge(
                workload, baseline, hung=hung,
                workload_error=workload_error[0] if workload_error else None,
                recovery_gap=end - max(t0, last_delivery[0]))
            passed = all(inv["ok"] for inv in invariants)
            report = {
                "scenario": self.scenario.name,
                "seed": self.seed,
                "dry_run": False,
                "workload": dict(self.scenario.workload),
                "plan": plan,
                "lint": [],
                "invariants": invariants,
                "passed": passed,
                "injections_performed": len(deliveries),
                "timing": {
                    "workload_s": round(end - t0, 4),
                    "deliveries": deliveries,
                    "fired": plane.summary(),
                    "counters": MetricsRegistry.diff(
                        baseline, TELEMETRY.metrics.snapshot())["global"],
                },
            }
            report["fingerprint"] = self._fingerprint(
                plan, invariants, passed)
            return report
        finally:
            HOST_POOL.faults = prior_pool_faults
            for host in workload.hosts():
                try:
                    host.inject_chaos("revert-all")
                except Exception:
                    pass  # host may be gone; its watchdogs revert anyway
            workload.teardown()
            shutil.rmtree(dirname, ignore_errors=True)

    def _arm_rule(self, plane: FaultPlane, inj: Injection) -> None:
        params = inj.params
        plane.rule(inj.point, inj.action,
                   op=params.get("op"),
                   address=params.get("address"),
                   p=float(params.get("p", 1.0)),
                   after=int(params.get("after", 0)),
                   times=int(params.get("times", 1) or 1),
                   seconds=float(params.get("seconds", 0.0)))

    def _inject_timed(self, timed: list[Injection], t0: float,
                      plane: FaultPlane, workload: Workload,
                      deliveries: list[dict[str, Any]],
                      last_delivery: list[float]) -> None:
        for inj in timed:
            delay = t0 + inj.at - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            record = {"at": inj.at, "point": inj.point,
                      "action": inj.action, "mode": "scheduled"}
            try:
                if inj.point == "resource":
                    # Hosts are resolved at delivery time, so a host
                    # respawned since arming still receives its fault.
                    hosts = workload.hosts()
                    for host in hosts:
                        host.inject_chaos(inj.action, inj.params)
                    record["hosts"] = len(hosts)
                else:
                    self._arm_rule(plane, inj)
            except Exception as exc:
                record["error"] = f"{type(exc).__name__}: {exc}"
            deliveries.append(record)
            last_delivery[0] = time.monotonic()

    def _judge(self, workload: Workload, baseline: dict[str, Any], *,
               hung: bool, workload_error: BaseException | None,
               recovery_gap: float) -> list[dict[str, Any]]:
        deltas = MetricsRegistry.diff(
            baseline, TELEMETRY.metrics.snapshot())["global"]
        out: list[dict[str, Any]] = []
        for inv in self.scenario.invariants:
            if inv.name == "data-identical":
                if hung or workload_error is not None:
                    ok, detail = False, self._failure(hung, workload_error)
                else:
                    ok, detail = workload.verify()
            elif inv.name == "no-hung-futures":
                if hung:
                    ok, detail = False, "workload still running at timeout"
                else:
                    pending = workload.hung_futures()
                    ok = pending == 0
                    detail = f"{pending} operations in flight after drive"
            elif inv.name == "recovers-within":
                bound = float(inv.value)
                ok = not hung and recovery_gap <= bound
                detail = (f"finished {recovery_gap:.2f}s after the last "
                          f"injection (bound {bound}s)")
            else:  # counter expression
                match = _COUNTER_EXPR.match(str(inv.value))
                name, op, num = match.group("name", "op", "num")
                observed = float(deltas.get(name, 0))
                ok = _COMPARATORS[op](observed, float(num))
                detail = f"{name} = {observed:g} (want {op} {num})"
            out.append({"name": inv.label, "ok": bool(ok), "detail": detail})
        if not self.scenario.invariants and \
                (hung or workload_error is not None):
            out.append({"name": "workload-completed", "ok": False,
                        "detail": self._failure(hung, workload_error)})
        return out

    @staticmethod
    def _failure(hung: bool, error: BaseException | None) -> str:
        if hung:
            return "workload still running at timeout"
        return f"workload raised {type(error).__name__}: {error}"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_report(report: dict[str, Any]) -> str:
    """Human-readable report (the CLI's default; ``--json`` bypasses)."""
    lines: list[str] = []
    verdict = "DRY-RUN" if report.get("dry_run") else (
        "PASS" if report.get("passed") else "FAIL")
    lines.append(f"scenario {report['scenario']} (seed {report['seed']}) "
                 f"... {verdict}")
    workload = report.get("workload") or {}
    if workload:
        lines.append(f"  workload: {workload.get('kind')}")
    lines.append("  timeline:")
    for entry in report.get("plan", []):
        params = entry.get("params") or {}
        detail = " ".join(f"{k}={v}" for k, v in params.items())
        lines.append(f"    t+{entry['at']:g}s  {entry['point']}:"
                     f"{entry['action']}  -> {entry['resolved_target']}"
                     + (f"  [{detail}]" if detail else ""))
    for problem in report.get("lint", []):
        lines.append(f"  lint: {problem}")
    if report.get("invariants"):
        lines.append("  invariants:")
        for inv in report["invariants"]:
            mark = "·" if inv["ok"] is None else ("ok" if inv["ok"]
                                                  else "FAIL")
            lines.append(f"    [{mark}] {inv['name']} — {inv['detail']}")
    timing = report.get("timing")
    if timing:
        lines.append(f"  injections: {report.get('injections_performed', 0)}"
                     f"  fired: {timing.get('fired') or {}}"
                     f"  workload: {timing.get('workload_s')}s")
    else:
        lines.append(f"  injections: {report.get('injections_performed', 0)}")
    return "\n".join(lines)
