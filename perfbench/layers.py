"""Per-layer timing for the traced run, taken from outside the program.

:class:`LayerTimer` wraps the public entry point of each layer on the
application's call path and sums the time spent inside it.  The
wrappers are installed only for the traced run and removed after it;
they count only while :attr:`LayerTimer.active` is set, and (except for
the origin exchange, which the network bridge serves on its own
threads) only on the thread that drives the workload.

Layer self time is a wrapper's total minus the wrappers nested inside
it, so the self times of the app call path add up to the time spent in
``ActiveFile``:

    ActiveFile.read/write/seek/getsize            -> fileobj
      ProcessControlSession.read_at/write_at/size -> strategy
        HostLease.request                         -> lease
          StreamChannel.request_async             -> send
          PendingReply.wait                       -> wait
    Network.call (bridge threads)                 -> origin
"""

from __future__ import annotations

import functools
import threading
from time import perf_counter_ns

from repro.core.channel import PendingReply, StreamChannel
from repro.core.fileobj import ActiveFile
from repro.core.runner import HostLease
from repro.core.strategies.process_control import ProcessControlSession
from repro.net.network import Network

#: (owner class, method names, layer) for every wrapped entry point.
WRAPPED = (
    (ActiveFile, ("read", "write", "seek", "getsize"), "fileobj"),
    (ProcessControlSession, ("read_at", "write_at", "size"), "strategy"),
    (HostLease, ("request",), "lease"),
    (StreamChannel, ("request_async",), "send"),
    (PendingReply, ("wait",), "wait"),
    (Network, ("call",), "origin"),
)

#: Layers timed on any thread; the rest only on the driving thread.
ANY_THREAD = frozenset({"origin"})


class LayerTimer:
    """Sums call counts and nanoseconds per layer while active."""

    def __init__(self) -> None:
        self.active = False
        self.calls = {layer: 0 for _, _, layer in WRAPPED}
        self.ns = {layer: 0 for _, _, layer in WRAPPED}
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._saved: list[tuple[type, str, object]] = []

    def _wrap(self, fn, layer: str):
        calls, ns = self.calls, self.ns
        any_thread = layer in ANY_THREAD
        lock = self._lock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if not self.active or (not any_thread
                                   and threading.get_ident() != self._owner):
                return fn(*args, **kwargs)
            started = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - started
                if any_thread:
                    with lock:
                        calls[layer] += 1
                        ns[layer] += elapsed
                else:
                    calls[layer] += 1
                    ns[layer] += elapsed
        return timed

    def install(self) -> None:
        for owner, names, layer in WRAPPED:
            for name in names:
                original = owner.__dict__.get(name)
                if original is None:
                    # Inherited: wrap the resolved method on this class.
                    original = getattr(owner, name)
                self._saved.append((owner, name, owner.__dict__.get(name)))
                setattr(owner, name, self._wrap(original, layer))

    def remove(self) -> None:
        for owner, name, original in reversed(self._saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
        self._saved.clear()

    def snapshot(self) -> tuple[dict[str, int], dict[str, int]]:
        with self._lock:
            return dict(self.calls), dict(self.ns)
