"""CLI tests: the exit-code contract and bundle export plumbing."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.cli import main
from repro.core import Container
from repro.core.telemetry import TELEMETRY

from tests.doctor.conftest import make_evidence, make_snapshot


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture
def demo(workdir):
    # Process-global counters (e.g. cache.flush_failures) outlive the
    # tests that bumped them; judge only the demo's own traffic.
    TELEMETRY.reset()
    main(["create", "demo.af", "repro.sentinels.null:NullFilterSentinel"])
    Container.load("demo.af").write_data(b"payload " * 4096)
    return "demo.af"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """``python -m repro.cli *args`` in a fresh process.

    Its telemetry holds only its own traffic: in this process, channels
    that earlier tests left alive stay registered as transport
    collectors, and a reset cannot unregister them.
    """
    src_root = os.path.dirname(os.path.dirname(os.path.abspath(
        repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH", "")) if p)
    return subprocess.run([sys.executable, "-m", "repro.cli", *args],
                          env=env, capture_output=True, text=True,
                          timeout=120)


class TestStatsExport:
    def test_export_writes_a_loadable_bundle(self, demo, capsys):
        assert main(["stats", demo, "--export", "bundle"]) == 0
        err = capsys.readouterr().err
        assert "exported evidence bundle" in err
        files = set(os.listdir("bundle"))
        assert {"meta.json", "snapshot.json",
                "snapshot_before.json"} <= files
        meta = json.loads(open("bundle/meta.json").read())
        assert meta["kind"] == "af-evidence"
        assert meta["container"] == demo

    def test_export_traces_the_sample_workload(self, demo):
        main(["stats", demo, "--export", "bundle"])
        assert os.path.exists("bundle/spans.jsonl")

    def test_human_output_mentions_latency_split(self, demo, capsys):
        assert main(["stats", demo]) == 0
        assert "latency split" in capsys.readouterr().out

    def test_json_shape_is_unchanged_by_export_feature(self, demo,
                                                       capsys):
        assert main(["stats", demo, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"file", "snapshot"}


class TestDoctorExitCodes:
    """The contract scripts rely on: 0 clean, 1 findings, 2 error."""

    def test_clean_bundle_exits_zero(self, demo, capsys):
        run_cli("stats", demo, "--export", "bundle")
        assert main(["doctor", "--bundle", "bundle"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, workdir, capsys):
        make_evidence(scopes={"a.af": {"host.respawns": 5}}).export(
            "dirty")
        assert main(["doctor", "--bundle", "dirty"]) == 1
        assert "respawn-storm" in capsys.readouterr().out

    def test_missing_bundle_exits_two(self, workdir, capsys):
        assert main(["doctor", "--bundle", "ghost"]) == 2
        assert "afctl doctor:" in capsys.readouterr().err

    def test_bad_checks_dir_exits_two(self, workdir):
        make_evidence({}).export("bundle")
        assert main(["doctor", "--bundle", "bundle",
                     "--checks", "no-such-checks"]) == 2

    def test_no_source_is_a_usage_error(self, workdir):
        with pytest.raises(SystemExit) as excinfo:
            main(["doctor"])
        assert excinfo.value.code == 2

    def test_live_capture_runs_clean(self, demo):
        proc = run_cli("doctor", "--live", demo, "--strategy", "thread")
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestDoctorOutput:
    def test_json_report_schema(self, workdir, capsys):
        make_evidence(host={"af-loop#1": {"host.backpressure.stalls": 3}}
                      ).export("bundle")
        assert main(["doctor", "--bundle", "bundle", "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == 1
        assert report["summary"]["info"] >= 1
        assert report["fingerprint"]["digest"]

    def test_report_file_matches_stdout_json(self, workdir, capsys):
        make_evidence({}).export("bundle")
        assert main(["doctor", "--bundle", "bundle", "--json",
                     "--report", "report.json"]) == 0
        stdout_doc = json.loads(capsys.readouterr().out)
        file_doc = json.loads(open("report.json").read())
        assert stdout_doc == file_doc

    def test_custom_checks_dir_replaces_shipped(self, workdir, capsys):
        (workdir / "checks").mkdir()
        (workdir / "checks" / "only.yaml").write_text(
            "name: custom-only\ntype: threshold\nmetric: shm.bytes\n"
            "above: 0\nseverity: info\nsubsystem: shm\n"
            "message: custom rule fired\n")
        make_evidence({"shm.bytes": 100}, host={
            "af-loop#1": {"host.backpressure.stalls": 5}}).export("bundle")
        assert main(["doctor", "--bundle", "bundle", "--json",
                     "--checks", "checks"]) == 1
        report = json.loads(capsys.readouterr().out)
        fired = {finding["check"] for finding in report["findings"]}
        # the custom rule fired; the shipped backpressure rule is gone
        # (span analyzers remain: --checks swaps declarative rules only)
        assert "custom-only" in fired
        assert "backpressure-stalls" not in fired

    def test_trend_finding_from_two_snapshot_bundle(self, workdir,
                                                    capsys):
        evidence = make_evidence(
            {"cache.flush_failures": 4},
            before=make_snapshot({"cache.flush_failures": 1}))
        evidence.export("bundle")
        assert main(["doctor", "--bundle", "bundle"]) == 1
        assert "write-behind" in capsys.readouterr().out
