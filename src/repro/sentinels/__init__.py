"""The sentinel library — every use from the paper's Section 3.

Each module provides one or more sentinel classes usable as container
spec targets, e.g. ``"repro.sentinels.null:NullFilterSentinel"``.
Each name here is imported from its module on first use, so
instantiating one sentinel loads only that sentinel's module.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "PipelineSentinel",
    "pipeline_spec",
    "VersioningSentinel",
    "ScriptSentinel",
    "script_spec",
    "NullFilterSentinel",
    "CounterSentinel",
    "RandomBytesSentinel",
    "SequenceSentinel",
    "CompressionSentinel",
    "XorCipherSentinel",
    "ConcurrentLogSentinel",
    "AuditSentinel",
    "RegistryFileSentinel",
    "RemoteFileSentinel",
    "AggregateSentinel",
    "StockQuoteSentinel",
    "InboxSentinel",
    "OutboxSentinel",
    "DistributionSentinel",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sentinels.null": ("NullFilterSentinel",),
    "repro.sentinels.generate": ("CounterSentinel", "RandomBytesSentinel",
                                 "SequenceSentinel"),
    "repro.sentinels.compress": ("CompressionSentinel",),
    "repro.sentinels.cipher": ("XorCipherSentinel",),
    "repro.sentinels.logfile": ("ConcurrentLogSentinel",),
    "repro.sentinels.audit": ("AuditSentinel",),
    "repro.sentinels.registryfs": ("RegistryFileSentinel",),
    "repro.sentinels.remotefile": ("RemoteFileSentinel",),
    "repro.sentinels.aggregate": ("AggregateSentinel",),
    "repro.sentinels.quotes": ("StockQuoteSentinel",),
    "repro.sentinels.mailbox": ("InboxSentinel", "OutboxSentinel"),
    "repro.sentinels.distribute": ("DistributionSentinel",),
    "repro.sentinels.script": ("ScriptSentinel", "script_spec"),
    "repro.sentinels.compose": ("PipelineSentinel", "pipeline_spec"),
    "repro.sentinels.versioned": ("VersioningSentinel",),
})
