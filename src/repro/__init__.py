"""Active Files — a reproduction of Dasgupta, Itzkovitz & Karamcheti,
"Active Files: A Mechanism for Integrating Legacy Applications into
Distributed Systems" (ICDCS 2000).

Quick start::

    from repro import create_active, open_active

    create_active("quotes.af",
                  "repro.sentinels.quotes:StockQuoteSentinel",
                  params={"address": "quotes.example:7"})
    with open_active("quotes.af", "rb", network=net) as stream:
        print(stream.read().decode())

Package map:

* :mod:`repro.core` — the active-files runtime (containers, sentinels,
  the four implementation strategies, interception, Win32-style API);
* :mod:`repro.sentinels` — ready-made sentinels for every Section 3 use;
* :mod:`repro.net` — the simulated network and remote services;
* :mod:`repro.ntos` — the virtual-time NT-like OS substrate;
* :mod:`repro.afsim` — active files on that substrate, reproducing the
  paper's Figure 6 performance study.

The names below, and those of :mod:`repro.core`, :mod:`repro.net` and
:mod:`repro.sentinels`, are imported on first use
(:mod:`repro.util.lazy`).
"""

from repro.util.lazy import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "ACTIVE_SUFFIX",
    "ActiveFile",
    "ActiveFileError",
    "Container",
    "MediatingConnector",
    "STRATEGIES",
    "Sentinel",
    "SentinelContext",
    "SentinelSpec",
    "StreamSentinel",
    "Win32Api",
    "__version__",
    "create_active",
    "is_active_path",
    "open_active",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.api": ("Win32Api",),
    "repro.core.container": ("ACTIVE_SUFFIX", "Container", "is_active_path"),
    "repro.core.fileobj": ("ActiveFile",),
    "repro.core.interception": ("MediatingConnector",),
    "repro.core.opener": ("create_active", "open_active"),
    "repro.core.sentinel": ("Sentinel", "SentinelContext", "StreamSentinel"),
    "repro.core.spec": ("SentinelSpec",),
    "repro.core.strategies": ("STRATEGIES",),
    "repro.errors": ("ActiveFileError",),
})
