"""Benchmark runner: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload small-sync --seed 1 --seconds 10 --trace 0

Each run sets up SETUPS fresh containers in turn, opens each with the
process-control strategy and drives it from one thread at depth 1, in op
blocks interleaved with blocks of a reference round trip
(``refecho.py``: a bare pipe echo between two plain Python processes)
while the application waits.  Every latency is reported as a multiple
of the open's median reference round trip, so machine-speed drift hits
both sides of the ratio.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the last open half the time untraced and half
with per-layer wrappers installed (``layers.py``) and prints the
per-layer metrics.  ``NOTES.md`` says why each workload and metric was
chosen.
Every read and GetFileSize result is checked against a ``bytearray``
model outside the timed window.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The line before it records provenance and raw counts.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass
from itertools import islice
from multiprocessing import resource_tracker
from pathlib import Path
from time import perf_counter, perf_counter_ns, process_time_ns, sleep
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Kill switches and tuning overrides: each selects a different program.
FORBIDDEN_KNOBS = ("REPRO_NO_SHM", "REPRO_NO_BATCH", "REPRO_NO_ADAPTIVE",
                   "REPRO_NO_BINHDR", "REPRO_HOST_MODE", "REPRO_SHM_MIN")
FORBIDDEN_PREFIX = "REPRO_HOST_"

#: Set-ups per run (setup_s is their median) and warm re-opens per
#: traced run (setup.open_s is their median).
SETUPS = 9
REOPENS = 3

#: Reference blocks taken before any sentinel host exists.
QUIET_BLOCKS = 5

#: On small-sync, the traced layer parts must sum to the traced mean
#: op latency within this share, and no host part may exceed the wait
#: it sits inside.
LEDGER_TOLERANCE = 0.10

NULL_SENTINEL = "repro.sentinels.null:NullFilterSentinel"
REMOTE_SENTINEL = "repro.sentinels.remotefile:RemoteFileSentinel"
ORIGIN_PATH = "data/blob"
CLK_TCK = os.sysconf("SC_CLK_TCK")
PR_SET_CHILD_SUBREAPER = 36

#: How long the run waits for its children to end before killing them.
REAP_TIMEOUT_S = 10.0


def _forbidden_knobs(environ) -> list[str]:
    return sorted(name for name in environ
                  if name in FORBIDDEN_KNOBS
                  or name.startswith(FORBIDDEN_PREFIX))


def _percentile(ordered, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def _read_exact(stream, size: int) -> bytes:
    chunks = []
    while size:
        chunk = stream.read(size)
        if not chunk:
            raise EOFError("reference helper closed its pipe")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def become_subreaper() -> None:
    """Adopt orphaned descendants so that they can be waited for.

    A sentinel host that attaches the shared-memory plane starts its own
    multiprocessing resource tracker, which outlives the host by a moment.
    As a subreaper this process inherits it and :func:`reap_children`
    waits for it.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as before


def child_pids() -> list[int]:
    """Pids of every live or unreaped child of this process, from /proc."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                fields = handle.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue  # it ended while the list was read
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(timeout: float = REAP_TIMEOUT_S) -> None:
    """Stop this process's resource tracker, then wait for every child.

    Call it after every host is shut down and every segment unlinked.  A
    child still running after *timeout* seconds is killed, then waited for.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()
    deadline = perf_counter() + timeout
    while True:
        pids = child_pids()
        if not pids:
            return
        overdue = perf_counter() >= deadline
        for pid in pids:
            try:
                if overdue:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
                else:
                    os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass
        sleep(0.01)


def _host_cpu_ns(pid: int) -> int:
    """User + system CPU of process *pid*, all threads, from /proc."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * 1_000_000_000 // CLK_TCK


class Reference:
    """Client of the reference helper process (``refecho.py``)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-I", str(HERE / "refecho.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)

    def block(self, count: int, size: int) -> array:
        self.proc.stdin.write(f"{count} {size}\n".encode())
        length = int.from_bytes(_read_exact(self.proc.stdout, 8), "little")
        samples = array("q")
        samples.frombytes(_read_exact(self.proc.stdout, length))
        return samples

    def close(self) -> None:
        try:
            self.proc.stdin.write(b"quit\n")
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Phase:
    """Raw measurements of one timed phase."""

    def __init__(self) -> None:
        self.latency = array("q")
        self.ref = array("q")
        self.wall_ns = 0
        self.app_cpu_ns = 0
        self.host_cpu_ns = 0
        self.payload_bytes = 0

    @property
    def ops(self) -> int:
        return len(self.latency)

    def summary(self) -> dict[str, float]:
        ordered = sorted(self.latency)
        ref = statistics.median(self.ref)
        return {
            "p50_rtt": _percentile(ordered, 0.50) / ref,
            "p90_rtt": _percentile(ordered, 0.90) / ref,
            "mean_rtt": self.wall_ns / self.ops / ref,
            "cpu_rtt": (self.app_cpu_ns + self.host_cpu_ns) / self.ops / ref,
            "p50_us": _percentile(ordered, 0.50) / 1e3,
            "mean_us": sum(self.latency) / self.ops / 1e3,
            "ops_per_s": self.ops / (self.wall_ns / 1e9),
            "ref_us": ref / 1e3,
        }


@dataclass
class Open:
    """One open workload container and its byte model."""

    file: Any
    path: Path
    model: bytearray
    stream: Iterator
    network: Any = None
    server: Any = None


class WorkloadRun:
    """Set-up, timed phases and checks of one workload for one seed."""

    def __init__(self, workload, seed: int, workdir: Path, ref: Reference,
                 inject_wrong_read: bool = False) -> None:
        self.wl = workload
        self.seed = seed
        self.workdir = workdir
        self.ref = ref
        self.initial = workload.initial_bytes(seed)
        self.blob = workload.payload_blob(seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.inject_wrong_read = inject_wrong_read
        #: Raw figures behind the reported ratios, for the provenance line.
        self.raw: dict = {}

    # -- set-up ------------------------------------------------------------------

    def setup(self, index: int) -> tuple[Open, dict[str, float]]:
        """Create, open and warm one container; time each step."""
        wl = self.wl
        started = perf_counter()
        path = self.workdir / f"{wl.name}-{index}.af"
        network = server = None
        if wl.remote:
            network = Network(profile=LinkProfile(latency_us=200.0,
                                                  bandwidth_mbps=1000.0),
                              clock=WallClock())
            server = network.bind(Address("origin", 7000), FileServer())
            server.put_file(ORIGIN_PATH, self.initial)
            create_active(path, REMOTE_SENTINEL,
                          params={"address": "origin:7000",
                                  "path": ORIGIN_PATH, "cache": "memory",
                                  "block_size": 4096, "max_blocks": 512,
                                  "readahead": 16, "writeback": True},
                          meta={"data": "memory"})
        else:
            create_active(path, NULL_SENTINEL, data=self.initial,
                          meta={"data": "memory"})
        opening = perf_counter()
        file = open_active(path, "r+b", strategy="process-control",
                           network=network)
        opened = perf_counter()
        handle = Open(file, path, bytearray(self.initial),
                      wl.stream(self.seed), network, server)
        ops = list(islice(handle.stream, wl.warmup_ops))
        payloads, results, _ = self._execute(file, ops)
        done = perf_counter()
        self._verify(handle.model, ops, payloads, results)
        return handle, {"total": done - started, "spawn": opened - opening,
                        "warm": done - opened}

    def close(self, handle: Open) -> None:
        """Close; check the origin holds the model (write-behind durability)."""
        handle.file.close()
        if handle.server is not None \
                and handle.server.get_file(ORIGIN_PATH) != handle.model:
            self.problems.append("origin bytes differ from the model "
                                 "after close")
        HOST_POOL.shutdown_all()
        for leftover in self.workdir.glob(handle.path.name + "*"):
            leftover.unlink()

    # -- ops -----------------------------------------------------------------------

    def _execute(self, file, ops):
        """Run *ops* back to back; the only code inside the timed window."""
        blob = self.blob
        payloads = [blob[shift:shift + size] if kind == "w" else None
                    for kind, _, size, shift in ops]
        results = []
        latency = array("q")
        for (kind, offset, size, _), payload in zip(ops, payloads):
            started = perf_counter_ns()
            try:
                if kind == "r":
                    file.seek(offset)
                    out = file.read(size)
                elif kind == "w":
                    file.seek(offset)
                    out = file.write(payload)
                else:
                    out = file.getsize()
            except Exception as exc:  # counted as failed by _verify
                out = exc
            latency.append(perf_counter_ns() - started)
            results.append(out)
        return payloads, results, latency

    def _verify(self, model: bytearray, ops, payloads, results) -> None:
        """Check every result against the model, in op order."""
        for (kind, offset, size, _), payload, out in zip(ops, payloads,
                                                          results):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self._problem(f"{kind}@{offset}+{size}: {out!r}")
                continue
            if kind == "r":
                if self.inject_wrong_read:
                    self.inject_wrong_read = False
                    out = bytes([out[0] ^ 0xFF]) + out[1:]
                ok = out == model[offset:offset + size]
            elif kind == "w":
                model[offset:offset + size] = payload
                ok = out == size
            else:
                ok = out == len(model)
            if not ok:
                self.failed += 1
                self._problem(f"{kind}@{offset}+{size}: result differs "
                              "from the model")

    def _problem(self, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(text)

    def measure(self, handle: Open, seconds: float,
                tracer=None) -> Phase:
        """Alternate op blocks and reference blocks for *seconds*."""
        wl = self.wl
        phase = Phase()
        file = handle.file
        pid = file.session.host.proc.pid
        ends = perf_counter() + seconds
        while True:
            ops = list(islice(handle.stream, wl.block_ops))
            app0 = process_time_ns()
            host0 = _host_cpu_ns(pid)
            if tracer is not None:
                tracer.active = True
            started = perf_counter_ns()
            payloads, results, latency = self._execute(file, ops)
            elapsed = perf_counter_ns() - started
            if tracer is not None:
                tracer.active = False
            phase.host_cpu_ns += _host_cpu_ns(pid) - host0
            phase.app_cpu_ns += process_time_ns() - app0
            phase.wall_ns += elapsed
            phase.latency.extend(latency)
            phase.payload_bytes += sum(size for kind, _, size, _ in ops
                                       if kind != "s")
            self._verify(handle.model, ops, payloads, results)
            phase.ref.extend(self.ref.block(wl.ref_echoes, wl.ref_bytes))
            if perf_counter() >= ends:
                return phase

    # -- the run -------------------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict[str, float]:
        """Set up SETUPS fresh opens, each on its own host.

        Untraced, every open is measured for an equal share of *seconds*
        and each ratio is the median over the opens, so one disturbed
        host or time window cannot move it.  Traced, only the last open
        is measured.
        """
        timings, summaries = [], []
        for index in range(SETUPS):
            handle, timing = self.setup(index)
            timings.append(timing)
            try:
                if not trace:
                    summaries.append(
                        self.measure(handle, seconds / SETUPS).summary())
                elif index == SETUPS - 1:
                    return self._traced(handle, seconds, {
                        key: statistics.median(t[key] for t in timings)
                        for key in ("total", "spawn", "warm")})
            finally:
                self.close(handle)
        self.raw.update(setups_s=[t["total"] for t in timings],
                        opens=summaries)
        return {"setup_s": statistics.median(t["total"] for t in timings),
                **{key: statistics.median(s[key] for s in summaries)
                   for key in ("p50_rtt", "p90_rtt", "mean_rtt", "cpu_rtt")}}

    def _traced(self, handle: Open, seconds: float,
                setup: dict[str, float]) -> dict[str, float]:
        """Half the time untraced, half with layer wrappers; per-layer metrics."""
        from layers import LayerTimer

        plain = self.measure(handle, seconds / 2)
        before = self._counters(handle)
        tracer = LayerTimer()
        tracer.install()
        try:
            traced = self.measure(handle, seconds / 2, tracer)
        finally:
            tracer.remove()
        after = self._counters(handle)
        calls, ns = tracer.snapshot()
        reopen = []
        for _ in range(REOPENS):
            started = perf_counter()
            open_active(handle.path, "rb", strategy="process-control",
                        network=handle.network).close()
            reopen.append(perf_counter() - started)

        n = traced.ops
        delta = {key: after[key] - before[key] for key in before}
        us = {layer: ns[layer] / n / 1e3 for layer in ns}
        host_wait_us = delta["qwait_sum_us"] / n
        host_service_us = delta["service_sum_us"] / n
        layers = {
            "fileobj.self_us": us["fileobj"] - us["strategy"],
            "strategy.self_us": us["strategy"] - us["lease"],
            "lease.self_us": us["lease"] - us["send"] - us["wait"],
            "channel.send_us": us["send"],
            "channel.wait_us": us["wait"],
            "wire.residual_us": us["wait"] - host_wait_us - host_service_us,
        }
        # The ledger: the app call's self times, with the channel wait
        # split into host queue-wait, host service and the wire residual.
        ledger_us = (sum(layers.values()) - layers["channel.wait_us"]
                     + host_wait_us + host_service_us)
        plain_s, traced_s = plain.summary(), traced.summary()
        ledger_ratio = ledger_us / traced_s["mean_us"]
        if self.wl.name == "small-sync" and (
                abs(ledger_ratio - 1) > LEDGER_TOLERANCE
                or layers["wire.residual_us"] < 0):
            self.problems.append(
                f"layer parts sum to {ledger_ratio:.3f} of the mean latency "
                f"(tolerance {LEDGER_TOLERANCE}), residual "
                f"{layers['wire.residual_us']:.1f} us")

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        return {
            **layers,
            "strategy.attempts_per_op": share(calls["lease"],
                                              calls["strategy"]),
            "ring.singleton_share": share(
                delta["batch.singleton"],
                delta["batch.singleton"] + delta["batch.flushes"]),
            "header.binary_share": share(
                delta["transport.header.binary"],
                delta["transport.header.binary"]
                + delta["transport.header.json"]),
            "host.queue_wait_us": share(delta["qwait_sum_us"],
                                        delta["qwait_ops"]),
            "host.service_us": share(delta["service_sum_us"],
                                     delta["service_ops"]),
            "host.rejects": after["host.rejects"],
            "host.stalls": after["host.stalls"],
            "shm.byte_share": share(delta["shm.bytes"], traced.payload_bytes),
            "shm.fallbacks": delta["shm.fallback_inline"],
            "cache.hit_ratio": share(delta["cache.hits"],
                                     delta["cache.hits"]
                                     + delta["cache.misses"]),
            "cache.prefetch_useful_ratio": share(
                delta["cache.prefetch_used"], delta["cache.prefetch_issued"]),
            "cache.coalesced_flushes": delta["cache.coalesced_flushes"],
            "origin.requests_per_op": delta["origin.requests"] / n,
            "origin.bytes_per_op": delta["origin.bytes"] / n,
            "origin.call_us": share(ns["origin"], calls["origin"]) / 1e3,
            "cpu.app_us_per_op": plain.app_cpu_ns / plain.ops / 1e3,
            "cpu.host_us_per_op": plain.host_cpu_ns / plain.ops / 1e3,
            "setup.spawn_s": setup["spawn"],
            "setup.open_s": statistics.median(reopen),
            "setup.warm_s": setup["warm"],
            "ref.rtt_us": statistics.median(plain.ref + traced.ref) / 1e3,
            "p50_us": plain_s["p50_us"],
            "ops_per_s": plain_s["ops_per_s"],
            "trace.overhead": traced_s["mean_rtt"] / plain_s["mean_rtt"],
            "ledger.sum_ratio": ledger_ratio,
            "ledger.mean_us": traced_s["mean_us"],
        }

    def _counters(self, handle: Open) -> dict[str, float]:
        """Cumulative counters of every layer, read outside the timed window."""
        file = handle.file
        metrics = TELEMETRY.snapshot()["metrics"]["global"]
        out = {name: metrics.get(name, 0) for name in (
            "batch.singleton", "batch.flushes", "transport.header.binary",
            "transport.header.json", "shm.bytes", "shm.fallback_inline")}
        pong = file.session.host.ping()
        lat, host = pong["lat"], pong.get("host") or {}
        out["qwait_ops"] = lat["queue_wait_ops"]
        out["qwait_sum_us"] = lat["queue_wait_mean_us"] * lat["queue_wait_ops"]
        out["service_ops"] = lat["service_ops"]
        out["service_sum_us"] = lat["service_mean_us"] * lat["service_ops"]
        out["host.rejects"] = host.get("host.rejects", 0)
        out["host.stalls"] = host.get("host.backpressure.stalls", 0)
        cache = file.cache_stats() if self.wl.remote else {}
        for key in ("hits", "misses", "prefetch_issued", "prefetch_used",
                    "coalesced_flushes"):
            out[f"cache.{key}"] = cache.get(key, 0)
        stats = handle.network.stats if handle.network is not None else None
        out["origin.requests"] = stats.requests if stats else 0
        out["origin.bytes"] = (stats.bytes_sent + stats.bytes_received
                               if stats else 0)
        return out


def _source_digest() -> str:
    """SHA-256 over the program's Python sources (the checkout may not
    be a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> "str | None":
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _provenance(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith("REPRO_")},
    }


def _declared_metrics(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-wrong-read", action="store_true",
                        help="corrupt one read result before it is checked "
                             "(harness self-test)")
    args = parser.parse_args(argv)

    knobs = _forbidden_knobs(os.environ)
    if knobs:
        print(f"refusing to run: {', '.join(knobs)} set; each kill switch "
              "or override selects a different program", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 3
    declared = _declared_metrics(bool(args.trace))
    provenance = _provenance(args)

    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    become_subreaper()
    ref = Reference()
    try:
        wl = WORKLOADS[args.workload]
        quiet = array("q")
        for _ in range(QUIET_BLOCKS):
            quiet.extend(ref.block(wl.ref_echoes, wl.ref_bytes))
        run = WorkloadRun(wl, args.seed, workdir, ref,
                          inject_wrong_read=args.inject_wrong_read)
        metrics = run.run(args.seconds, bool(args.trace))
        if args.trace:
            metrics["ref.quiet_rtt_us"] = statistics.median(quiet) / 1e3
    finally:
        HOST_POOL.shutdown_all()
        ref.close()
        reap_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run shares the directory

    problems = list(run.problems)
    missing = sorted(set(declared) - set(metrics))
    extra = sorted(set(metrics) - set(declared))
    if missing or extra:
        problems.append(f"metrics missing {missing}, undeclared {extra}")
    bad = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if bad:
        problems.append(f"non-finite metrics {bad}")
    provenance["problems"] = problems
    provenance["raw"] = run.raw
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics.get(name, float("nan")),
                           "unit": unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from repro.core import create_active, open_active
        from repro.core.runner import HOST_POOL
        from repro.core.telemetry import TELEMETRY
        from repro.net import Address, FileServer, LinkProfile, Network, \
            WallClock
    except ImportError as exc:
        print(f"cannot import the program under test: {exc}", file=sys.stderr)
        sys.exit(3)
    sys.exit(main())
