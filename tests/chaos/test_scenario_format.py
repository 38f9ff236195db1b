"""The scenario format: loader, linter, and the dry-run safety rail."""

import json

import pytest

from repro.core import policy
from repro.core.scenario import (
    ScenarioRunner,
    lint_scenario,
    load_scenario,
    parse_scenario,
)
from repro.core.telemetry import TELEMETRY
from repro.errors import ScenarioError

GOOD = """
# a comment
name: sample
seed: 42
workload:
  kind: sequential-read
  bytes: 4096
timeline:
  - at: 0
    point: send
    action: kill
    params:
      after: 2
      times: 1
  - at: 0.5
    point: resource
    action: cpu-hog
    params:
      seconds: 0.2
invariants:
  - data-identical
  - no-hung-futures
  - recovers-within: 5.0
  - faults.injected.send.kill >= 1
"""


def _scenario(text=GOOD):
    return parse_scenario(load_scenario(text))


class TestLoader:
    """The dependency-free YAML subset (JSON accepted as-is)."""

    def test_round_trip_structure(self):
        doc = load_scenario(GOOD)
        assert doc["name"] == "sample"
        assert doc["seed"] == 42
        assert doc["workload"] == {"kind": "sequential-read", "bytes": 4096}
        assert doc["timeline"][0]["params"] == {"after": 2, "times": 1}
        assert doc["timeline"][1]["action"] == "cpu-hog"
        assert doc["invariants"][2] == {"recovers-within": 5.0}

    def test_scalars(self):
        doc = load_scenario("a: true\nb: false\nc: null\nd: 3\ne: 3.5\n"
                            "f: 'x: #y'\ng: plain\n")
        assert doc == {"a": True, "b": False, "c": None, "d": 3, "e": 3.5,
                       "f": "x: #y", "g": "plain"}

    def test_json_passthrough(self):
        doc = load_scenario(json.dumps(
            {"name": "j", "workload": {"kind": "swarm-read"}}))
        assert doc["name"] == "j"

    def test_rejects_tabs_and_bad_indent(self):
        with pytest.raises(ScenarioError):
            load_scenario("a:\n\tb: 1\n")
        with pytest.raises(ScenarioError):
            load_scenario("a: 1\n   stray\n")

    def test_rejects_empty_and_non_mapping(self):
        with pytest.raises(ScenarioError):
            load_scenario("   \n# only comments\n")
        with pytest.raises(ScenarioError):
            load_scenario("- 1\n- 2\n")

    def test_parse_requires_workload_kind(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"name": "x", "workload": {}})
        with pytest.raises(ScenarioError):
            parse_scenario({"name": "x", "workload": {"kind": "swarm-read"},
                            "timeline": [{"at": 0}]})

    def test_parse_rejects_unknown_top_level_keys(self):
        with pytest.raises(ScenarioError):
            parse_scenario({"name": "x", "workload": {"kind": "swarm-read"},
                            "timelime": []})  # the typo is the point


class TestLinter:
    """The blast-radius gate the CLI can never relax."""

    def _lint_one(self, **entry):
        scenario = parse_scenario({
            "name": "l", "workload": {"kind": "swarm-read"},
            "timeline": [entry]})
        return lint_scenario(scenario)

    def test_clean_scenario_passes(self):
        assert lint_scenario(_scenario()) == []

    def test_unknown_point_and_action(self):
        assert self._lint_one(point="warp", action="drop")
        assert self._lint_one(point="send", action="partition")

    def test_negative_at_and_bad_target(self):
        assert self._lint_one(at=-1, point="send", action="drop")
        assert self._lint_one(point="send", action="drop", target="universe")

    def test_destructive_needs_bounds(self):
        problems = self._lint_one(point="send", action="kill",
                                  params={"times": None})
        assert any("bounded 'times'" in p for p in problems)
        problems = self._lint_one(point="send", action="kill",
                                  params={"p": 0.5})
        assert any("p == 1.0" in p for p in problems)
        # Non-destructive probabilistic rules are fine outside tests.
        assert self._lint_one(point="send", action="drop",
                              params={"p": 0.5, "times": None}) == []

    @pytest.mark.parametrize("op", ["read", "readv"])
    def test_shm_corrupt_on_a_reply_slot_is_refused(self, op):
        """A read's reply slot holds no staged payload, so the rule
        would count an injection that corrupts nothing."""
        problems = self._lint_one(point="shm", action="shm-corrupt",
                                  params={"op": op})
        assert any("no staged payload" in p for p in problems)
        assert self._lint_one(point="shm", action="shm-corrupt",
                              params={"op": "write"}) == []
        assert self._lint_one(point="shm", action="shm-stale-generation",
                              params={"op": op}) == []

    def test_allow_unbounded_is_the_test_escape_hatch(self):
        scenario = parse_scenario({
            "name": "l", "workload": {"kind": "swarm-read"},
            "timeline": [{"point": "send", "action": "kill",
                          "params": {"p": 0.5, "times": None}}]})
        assert lint_scenario(scenario)
        assert lint_scenario(scenario, allow_unbounded=True) == []

    def test_resource_duration_caps(self):
        problems = self._lint_one(
            point="resource", action="cpu-hog",
            params={"seconds": policy.CHAOS_MAX_FAULT_S + 1})
        assert any("CHAOS_MAX_FAULT_S" in p for p in problems)
        scenario = parse_scenario({
            "name": "l", "workload": {"kind": "swarm-read"},
            "timeline": [
                {"point": "resource", "action": "cpu-hog",
                 "params": {"seconds": policy.CHAOS_MAX_FAULT_S}}
                for _ in range(1 + int(policy.CHAOS_MAX_TOTAL_INJECTION_S
                                       / policy.CHAOS_MAX_FAULT_S))]})
        assert any("CHAOS_MAX_TOTAL_INJECTION_S" in p
                   for p in lint_scenario(scenario))

    def test_invariant_validation(self):
        scenario = parse_scenario({
            "name": "l", "workload": {"kind": "swarm-read"},
            "invariants": ["no-such-invariant",
                           {"recovers-within": -2},
                           "faults.injected.send.kill >= 1"]})
        problems = lint_scenario(scenario)
        assert len(problems) == 2  # the counter expression is fine

    def test_unknown_workload_kind(self):
        scenario = parse_scenario({"name": "l",
                                   "workload": {"kind": "defrag"}})
        assert any("unknown kind" in p for p in lint_scenario(scenario))


class TestDryRun:
    """Dry-run is structurally injection-free, not flag-guarded."""

    def test_zero_injections_and_zero_counter_movement(self):
        before = dict(TELEMETRY.metrics.snapshot()["global"])
        report = ScenarioRunner(_scenario(), dry_run=True).run()
        after = TELEMETRY.metrics.snapshot()["global"]
        assert report["dry_run"] is True
        assert report["passed"] is True
        assert report["injections_performed"] == 0
        moved = {k: v for k, v in after.items()
                 if k.startswith("faults.injected.")
                 and v != before.get(k, 0)}
        assert moved == {}
        # No hosts were spawned either — the workload was never built.
        assert after.get("hosts.spawned", 0) == before.get("hosts.spawned", 0)

    def test_dry_run_resolves_the_full_timeline(self):
        report = ScenarioRunner(_scenario(), dry_run=True).run()
        assert [e["point"] for e in report["plan"]] == ["send", "resource"]
        assert all(e["resolved_target"] == "all-session-hosts"
                   for e in report["plan"])

    def test_dry_run_surfaces_lint_problems(self):
        scenario = parse_scenario({
            "name": "l", "workload": {"kind": "defrag"}})
        report = ScenarioRunner(scenario, dry_run=True).run()
        assert report["passed"] is False
        assert report["lint"]

    def test_dry_run_fingerprint_is_deterministic(self):
        one = ScenarioRunner(_scenario(), dry_run=True).run()
        two = ScenarioRunner(_scenario(), dry_run=True).run()
        assert one["fingerprint"] == two["fingerprint"]

    def test_run_refuses_a_scenario_that_fails_lint(self):
        scenario = parse_scenario({
            "name": "l", "workload": {"kind": "swarm-read"},
            "timeline": [{"point": "send", "action": "kill",
                          "params": {"times": None}}]})
        with pytest.raises(ScenarioError):
            ScenarioRunner(scenario).run()
