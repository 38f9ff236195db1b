"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, each against the real program:

* a one-second run of every workload, untraced and traced, prints every
  metric declared in ``BENCHMARK.json`` with its unit and a finite value,
  and no other, with zero failed ops;
* the reference helper and its echo child import no ``repro`` module;
* an injected wrong read is counted as failed and fails the run;
* a kill switch or tuning override in the environment is refused;
* a run leaves no process running, not even an orphaned grandchild;
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = [sys.executable, str(HERE / "run.py")]
TIMEOUT = 180


def _run(args: list[str], cwd: Path = ROOT, env=None, command=None):
    return subprocess.run((command or RUN) + args, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            name = workload["name"]
            result = _result(_run(["--workload", name, "--seed", "7",
                                   "--seconds", "1", "--trace", str(trace)]))
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, result.keys()
            assert result["correct"] is True, (name, trace, result)
            assert result["failed"] == 0 and result["attempted"] >= 1, result
            declared = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {key: value["unit"]
                       for key, value in result["metrics"].items()}
            assert emitted == declared, (name, trace, emitted, declared)
            for key, value in result["metrics"].items():
                assert isinstance(value["value"], (int, float)) \
                    and math.isfinite(value["value"]), (name, key, value)
            print(f"ok   {name} --trace {trace}: "
                  f"{len(emitted)} metrics, {result['attempted']} ops")


def check_reference_isolated() -> None:
    """Both reference processes run the module with import tracing on."""
    for args, stdin in (([], "3 64\nquit\n"), (["--echo"], "")):
        proc = subprocess.run(
            [sys.executable, "-I", "-X", "importtime",
             str(HERE / "refecho.py"), *args],
            input=stdin.encode(), capture_output=True, timeout=TIMEOUT)
        assert proc.returncode == 0, proc.stderr[-2000:]
        imported = [line.rsplit("|", 1)[-1].strip()
                    for line in proc.stderr.decode().splitlines()
                    if line.startswith("import time:")]
        assert imported, "import tracing printed nothing"
        leaked = [name for name in imported if name.startswith("repro")]
        assert not leaked, leaked
    print("ok   reference helper and echo child import no repro module")


def check_wrong_read_counted() -> None:
    result = _result(_run(["--workload", "small-sync", "--seed", "7",
                           "--seconds", "1", "--trace", "0",
                           "--inject-wrong-read"]))
    assert result["failed"] == 1 and result["correct"] is False, result
    print("ok   an injected wrong read counts as failed")


def check_knobs_refused() -> None:
    for knob in ("REPRO_NO_SHM", "REPRO_HOST_EXECUTORS"):
        proc = _run(["--workload", "small-sync", "--seed", "7",
                     "--seconds", "1"], env={**os.environ, knob: "1"})
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok   kill switches and overrides are refused")


def check_no_process_left() -> None:
    """As a subreaper this process inherits any descendant a run orphans."""
    from run import become_subreaper, child_pids
    become_subreaper()
    for name in ("small-sync", "bulk-sync"):
        _result(_run(["--workload", name, "--seed", "7",
                      "--seconds", "1", "--trace", "0"]))
        left = child_pids()
        assert not left, (name, left)
    print("ok   a run leaves no process behind")


def check_needs_program() -> None:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        proc = _run(["--workload", "small-sync", "--seed", "7",
                     "--seconds", "1", "--trace", "0"], cwd=bare,
                    command=[sys.executable, "perfbench/run.py"])
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass  # a benchmark run shares the directory
    print("ok   without the program the benchmark fails without a result")


def main() -> int:
    check_reference_isolated()
    check_knobs_refused()
    check_needs_program()
    check_wrong_read_counted()
    check_no_process_left()
    check_metrics()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
