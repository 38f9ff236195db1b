"""Tests for the afctl command-line tool."""

import io
import sys

import pytest

from repro.cli import main
from repro.core import Container


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCreateInfo:
    def test_create_and_info(self, workdir, capsys):
        assert main(["create", "f.af",
                     "repro.sentinels.null:NullFilterSentinel"]) == 0
        assert main(["info", "f.af"]) == 0
        out = capsys.readouterr().out
        assert "NullFilterSentinel" in out
        assert "data part: 0 bytes" in out

    def test_create_with_json_params(self, workdir):
        assert main(["create", "g.af",
                     "repro.sentinels.generate:CounterSentinel",
                     "--param", "width=3", "--param", "count=2",
                     "--ephemeral"]) == 0
        container = Container.load("g.af")
        assert container.spec.params == {"width": 3, "count": 2}
        assert container.meta == {"data": "memory"}

    def test_create_string_param_fallback(self, workdir):
        main(["create", "s.af", "repro.sentinels.cipher:XorCipherSentinel",
              "--param", "key=hunter2"])
        assert Container.load("s.af").spec.params == {"key": "hunter2"}

    def test_create_refuses_overwrite_without_force(self, workdir, capsys):
        main(["create", "f.af", "repro.sentinels.null:NullFilterSentinel"])
        assert main(["create", "f.af",
                     "repro.sentinels.null:NullFilterSentinel"]) == 1
        assert "afctl:" in capsys.readouterr().err

    def test_create_with_data_file(self, workdir):
        (workdir / "seed.txt").write_bytes(b"seed content")
        main(["create", "d.af", "repro.sentinels.null:NullFilterSentinel",
              "--data", "seed.txt"])
        assert Container.load("d.af").data == b"seed content"

    def test_bad_param_syntax(self, workdir):
        with pytest.raises(SystemExit):
            main(["create", "x.af", "repro.sentinels.null:NullFilterSentinel",
                  "--param", "oops"])

    def test_info_missing_file(self, workdir, capsys):
        assert main(["info", "ghost.af"]) == 1


class TestCatWrite:
    def test_cat(self, workdir, capsysbinary):
        main(["create", "c.af", "repro.sentinels.null:NullFilterSentinel",
              "--force"])
        Container.load("c.af").write_data(b"cat me\n")
        assert main(["cat", "c.af"]) == 0
        assert capsysbinary.readouterr().out.endswith(b"cat me\n")

    def test_cat_limit_on_endless_generator(self, workdir, capsysbinary):
        main(["create", "r.af", "repro.sentinels.generate:RandomBytesSentinel",
              "--ephemeral"])
        assert main(["cat", "r.af", "--limit", "64"]) == 0
        assert len(capsysbinary.readouterr().out) >= 64

    def test_write_then_cat(self, workdir, monkeypatch, capsys):
        main(["create", "w.af", "repro.sentinels.null:NullFilterSentinel"])
        monkeypatch.setattr(sys, "stdin",
                            type("S", (), {"buffer": io.BytesIO(b"payload")})())
        assert main(["write", "w.af"]) == 0
        assert Container.load("w.af").data == b"payload"

    def test_write_append(self, workdir, monkeypatch):
        main(["create", "w.af", "repro.sentinels.null:NullFilterSentinel"])
        Container.load("w.af").write_data(b"head;")
        monkeypatch.setattr(sys, "stdin",
                            type("S", (), {"buffer": io.BytesIO(b"tail")})())
        main(["write", "w.af", "--append"])
        assert Container.load("w.af").data == b"head;tail"


class TestCopyAndMisc:
    def test_copy_moves_both_parts(self, workdir):
        main(["create", "a.af", "repro.sentinels.cipher:XorCipherSentinel",
              "--param", "key=k"])
        Container.load("a.af").write_data(b"secret-ish")
        assert main(["copy", "a.af", "b.af"]) == 0
        copy = Container.load("b.af")
        assert copy.spec.params == {"key": "k"}
        assert copy.data == b"secret-ish"

    def test_strategies_listing(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("process", "process-control", "thread", "inproc"):
            assert name in out

    def test_figure6_passthrough(self, capsys):
        assert main(["figure6", "--panel", "c", "--op", "read",
                     "--calls", "40"]) == 0
        assert "Figure 6(c) Read" in capsys.readouterr().out


class TestAdaptAndSandboxCommands:
    def test_adapt_rewrites_spec(self, workdir, capsys):
        main(["create", "t.af", "tests.core.test_adapter:TickerStream",
              "--param", "lines=4", "--ephemeral"])
        assert main(["adapt", "t.af"]) == 0
        container = Container.load("t.af")
        assert container.spec.target == \
            "repro.core.adapter:StreamAdapterSentinel"
        # the adapted file is now seekable under random-access strategies
        from repro.core import open_active

        with open_active("t.af", "rb", strategy="inproc") as stream:
            stream.seek(9)
            assert stream.read(9) == b"tick 001\n"

    def test_sandbox_rewrites_spec(self, workdir):
        main(["create", "s.af", "repro.sentinels.null:NullFilterSentinel"])
        Container.load("s.af").write_data(b"guarded")
        assert main(["sandbox", "s.af", "--read-only",
                     "--max-total-bytes", "4"]) == 0
        from repro.core import open_active
        from repro.errors import SandboxViolation

        with open_active("s.af", "r+b", strategy="inproc") as stream:
            assert stream.read(4) == b"guar"
            with pytest.raises(SandboxViolation):
                stream.read(4)

    def test_sandbox_host_allowlist_flag(self, workdir):
        main(["create", "h.af", "repro.sentinels.null:NullFilterSentinel"])
        main(["sandbox", "h.af", "--allow-host", "files",
              "--allow-host", "quotes"])
        params = Container.load("h.af").spec.params
        assert params["policy"]["allowed_hosts"] == ["files", "quotes"]


class TestLsCommand:
    def test_ls_lists_active_files(self, workdir, capsys):
        main(["create", "one.af", "repro.sentinels.null:NullFilterSentinel"])
        main(["create", "two.af", "repro.sentinels.cipher:XorCipherSentinel",
              "--param", "key=k"])
        (workdir / "plain.txt").write_text("not active")
        assert main(["ls", "."]) == 0
        out = capsys.readouterr().out
        assert "one.af" in out and "two.af" in out
        assert "plain.txt" not in out
        assert "XorCipherSentinel" in out

    def test_ls_empty_directory(self, workdir, capsys):
        assert main(["ls", "."]) == 0
        assert "no active files" in capsys.readouterr().out

    def test_ls_sniff_finds_renamed_containers(self, workdir, capsys):
        import shutil

        main(["create", "orig.af", "repro.sentinels.null:NullFilterSentinel"])
        shutil.copy("orig.af", "disguised.bin")
        main(["ls", ".", "--sniff"])
        assert "disguised.bin" in capsys.readouterr().out

    def test_ls_reports_corrupt_containers(self, workdir, capsys):
        (workdir / "broken.af").write_bytes(b"not a container at all")
        main(["ls", "."])
        assert "<unreadable container>" in capsys.readouterr().out


class TestStatsTrace:
    def _make(self, data=b"hello world"):
        import pathlib

        pathlib.Path("data.txt").write_bytes(data)
        assert main(["create", "f.af",
                     "repro.sentinels.null:NullFilterSentinel",
                     "--data", "data.txt"]) == 0

    def test_stats_renders_every_family(self, workdir, capsys):
        self._make()
        assert main(["stats", "f.af"]) == 0
        out = capsys.readouterr().out
        for heading in ("transport totals:", "files:", "cache:",
                        "network:", "faults:", "close errors:"):
            assert heading in out
        assert "reads=1" in out

    def test_stats_json_is_machine_readable(self, workdir, capsys):
        import json

        self._make()
        capsys.readouterr()  # drop the create banner
        assert main(["stats", "f.af", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert {"file", "snapshot"} == set(doc)
        assert doc["snapshot"]["transport"]["totals"]["requests_sent"] >= 1

    def test_trace_cat_prints_timeline(self, workdir, capsys):
        self._make()
        assert main(["trace", "f.af", "--", "cat"]) == 0
        out = capsys.readouterr().out
        for name in ("file", "app.read", "frame.read", "dispatch.read"):
            assert name in out

    def test_trace_leaves_tracing_off(self, workdir):
        from repro.core.telemetry import TELEMETRY

        self._make()
        assert main(["trace", "f.af", "--", "size"]) == 0
        assert not TELEMETRY.tracing

    def test_trace_export_writes_one_tree(self, workdir, capsys):
        import json

        self._make()
        assert main(["trace", "--export", "t.jsonl", "f.af",
                     "--", "read", "0", "5"]) == 0
        with open("t.jsonl") as export:
            lines = [json.loads(line) for line in export.read().splitlines()]
        assert lines
        assert len({line["trace"] for line in lines}) == 1
        sids = {line["sid"] for line in lines}
        roots = [ln for ln in lines if ln["parent"] not in sids]
        assert [r["name"] for r in roots] == ["file"]

    def test_trace_rejects_unknown_verb(self, workdir, capsys):
        self._make()
        assert main(["trace", "f.af", "--", "frobnicate"]) == 1
        assert "unknown op" in capsys.readouterr().err


class TestChaos:
    """The ``afctl chaos`` subcommands (run / dry-run / lint)."""

    SCENARIO = """\
name: cli-smoke
seed: 11
workload:
  kind: swarm-read
  sessions: 2
  bytes: 2048
timeline:
  - at: 0.02
    point: resource
    action: cpu-hog
    params:
      seconds: 0.1
      threads: 1
invariants:
  - data-identical
  - no-hung-futures
"""

    def _write(self, workdir, text=None):
        path = workdir / "scenario.yaml"
        path.write_text(text or self.SCENARIO)
        return str(path)

    def test_lint_ok(self, workdir, capsys):
        assert main(["chaos", "lint", self._write(workdir)]) == 0
        assert "cli-smoke: ok" in capsys.readouterr().out

    def test_lint_failure_exits_nonzero(self, workdir, capsys):
        bad = self.SCENARIO.replace("action: cpu-hog", "action: warp-core")
        assert main(["chaos", "lint", self._write(workdir, bad)]) == 1
        assert "warp-core" in capsys.readouterr().err

    def test_dry_run_json_reports_zero_injections(self, workdir, capsys):
        import json

        assert main(["chaos", "dry-run", self._write(workdir),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dry_run"] is True
        assert report["injections_performed"] == 0
        assert report["plan"][0]["action"] == "cpu-hog"

    def test_run_writes_report_and_respects_seed(self, workdir, capsys):
        import json

        path = self._write(workdir)
        assert main(["chaos", "run", path, "--seed", "77",
                     "--report", "report.json", "--json"]) == 0
        stdout_report = json.loads(capsys.readouterr().out)
        file_report = json.loads((workdir / "report.json").read_text())
        assert stdout_report["seed"] == 77
        assert stdout_report["passed"] is True
        assert file_report["fingerprint"] == stdout_report["fingerprint"]

    def test_run_fails_on_unsatisfied_invariant(self, workdir, capsys):
        impossible = self.SCENARIO + "  - faults.injected.send.kill >= 99\n"
        assert main(["chaos", "run",
                     self._write(workdir, impossible)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_scenario_error_is_reported_not_raised(self, workdir, capsys):
        path = workdir / "broken.yaml"
        path.write_text("just a string\n")
        assert main(["chaos", "lint", str(path)]) == 1
        assert "afctl:" in capsys.readouterr().err
