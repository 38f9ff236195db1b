"""The native active-files runtime — the paper's primary contribution.

Public surface:

* :func:`~repro.core.opener.create_active` / :func:`~repro.core.opener.open_active`
  — make and open active files;
* :class:`~repro.core.sentinel.Sentinel` / :class:`~repro.core.sentinel.StreamSentinel`
  — the sentinel programming model;
* :class:`~repro.core.interception.MediatingConnector` — transparent
  ``open()`` interception for unmodified legacy code;
* :class:`~repro.core.api.Win32Api` — the Win32-flavoured handle API;
* :class:`~repro.core.container.Container` / :class:`~repro.core.spec.SentinelSpec`
  — the on-disk representation.

Each name is imported from its module on first use, so a sentinel host
child, which imports :mod:`repro.core.runner`, never loads the client
surface it does not run.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "ACTIVE_SUFFIX",
    "ActiveFile",
    "BlockCache",
    "Container",
    "HandleTable",
    "MediatingConnector",
    "STRATEGIES",
    "Sentinel",
    "SentinelContext",
    "SentinelSpec",
    "StreamSentinel",
    "Win32Api",
    "create_active",
    "is_active_path",
    "open_active",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.api": ("Win32Api",),
    "repro.core.cache": ("BlockCache",),
    "repro.core.container": ("ACTIVE_SUFFIX", "Container", "is_active_path"),
    "repro.core.fileobj": ("ActiveFile",),
    "repro.core.handles": ("HandleTable",),
    "repro.core.interception": ("MediatingConnector",),
    "repro.core.opener": ("create_active", "open_active"),
    "repro.core.sentinel": ("Sentinel", "SentinelContext", "StreamSentinel"),
    "repro.core.spec": ("SentinelSpec",),
    "repro.core.strategies": ("STRATEGIES",),
})
