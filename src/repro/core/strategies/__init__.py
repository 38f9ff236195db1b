"""The four active-file implementation strategies (paper §4).

Each strategy module exposes ``open_session(container, network=None)``
returning a :class:`~repro.core.strategies.base.Session`.  The thread
and process-plus-control strategies share one client of the command
vocabulary, :class:`~repro.core.strategies.common.CommandSession`, and
differ only in the transport under it; the simple process strategy
speaks the stream commands alone.  The registry here maps user-facing
names (including the paper's DLL terminology) to modules.
"""

from __future__ import annotations

from repro.errors import StrategyError

__all__ = ["STRATEGIES", "resolve_strategy", "Session"]

from repro.core.strategies.base import Session

#: Canonical strategy names -> module path.  Aliases follow the paper's
#: naming ("DLL-with-thread", "DLL-only").
_CANONICAL = {
    "process": "repro.core.strategies.process",
    "process-control": "repro.core.strategies.process_control",
    "thread": "repro.core.strategies.thread",
    "inproc": "repro.core.strategies.inproc",
}

_ALIASES = {
    "process-plus-control": "process-control",
    "dll-with-thread": "thread",
    "dll-thread": "thread",
    "dll-only": "inproc",
    "dll": "inproc",
}

STRATEGIES = tuple(_CANONICAL)


def resolve_strategy(name: str):
    """Return (canonical name, module) for a strategy name or alias."""
    import importlib

    canonical = _ALIASES.get(name.lower(), name.lower())
    module_path = _CANONICAL.get(canonical)
    if module_path is None:
        known = ", ".join(sorted(set(_CANONICAL) | set(_ALIASES)))
        raise StrategyError(f"unknown strategy {name!r}; known: {known}")
    return canonical, importlib.import_module(module_path)
