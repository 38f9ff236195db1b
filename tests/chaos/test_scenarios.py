"""The scenario corpus: every bundled scenario passes, deterministically.

One parametrized test drives every file under ``scenarios/`` — real
sentinel children, real injections — and asserts the PR 3 invariants
the scenarios themselves declare (byte-identical data, no hung
futures), then replays the same seed and requires an identical report
fingerprint.  ``REPRO_CHAOS_SEED`` (set by the CI soak matrix)
overrides the seed baked into each file.
"""

import glob
import os

import pytest

from repro.core.scenario import ScenarioRunner, lint_scenario, \
    load_scenario_file, render_report

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "scenarios")
SCENARIO_FILES = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.yaml")))


def _seed_override():
    raw = os.environ.get("REPRO_CHAOS_SEED")
    return int(raw) if raw else None


def test_corpus_is_shipped():
    assert len(SCENARIO_FILES) >= 5, "the scenario corpus went missing"


@pytest.mark.parametrize(
    "path", SCENARIO_FILES,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in SCENARIO_FILES])
class TestScenarioCorpus:

    def test_lints_clean(self, path):
        assert lint_scenario(load_scenario_file(path)) == []

    def test_passes_and_replays_deterministically(self, path, request):
        scenario = load_scenario_file(path)
        if request.config.getoption("--no-shm") and any(
                inj.point == "shm" for inj in scenario.timeline):
            # An shm fault fires on a staged slot; with no plane up,
            # every payload rides inline and there is none to fault.
            pytest.skip("shared-memory plane unavailable (--no-shm)")
        seed = _seed_override()
        first = ScenarioRunner(scenario, seed=seed).run()
        assert first["passed"], "\n" + render_report(first)
        # Same seed, same fingerprint: the resolved plan and every
        # invariant verdict replay identically (wall-clock noise lives
        # under report["timing"], outside the fingerprint on purpose).
        second = ScenarioRunner(scenario, seed=seed).run()
        assert second["passed"], "\n" + render_report(second)
        assert first["fingerprint"] == second["fingerprint"]
