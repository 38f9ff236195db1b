"""In-process simulated network and remote information sources.

The paper evaluates active files against remote services reached over
100 Mbps Fast Ethernet.  This package provides the equivalent substrate:
a message-passing :class:`~repro.net.network.Network` that connects
clients (sentinels) to :class:`~repro.net.service.Service` instances,
charging each exchange a latency + per-byte cost against a pluggable
clock.  Services cover every information source the paper's Section 3
mentions: plain file servers, HTTP- and FTP-style servers, POP3/SMTP
mail, a stock-quote feed, a key-value database, and a Windows-registry
style hive.

Each name is imported from its module on first use: a sentinel needs
:mod:`repro.net.address` without loading every service.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "Address",
    "Request",
    "Response",
    "Network",
    "LinkProfile",
    "AccountingClock",
    "WallClock",
    "Service",
    "FileServer",
    "FtpServer",
    "HttpServer",
    "KeyValueStore",
    "Pop3Server",
    "QuoteServer",
    "SmtpServer",
    "RegistryServer",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.net.address": ("Address",),
    "repro.net.message": ("Request", "Response"),
    "repro.net.network": ("AccountingClock", "LinkProfile", "Network",
                          "WallClock"),
    "repro.net.service": ("Service",),
    "repro.net.fileserver": ("FileServer",),
    "repro.net.ftpd": ("FtpServer",),
    "repro.net.httpd": ("HttpServer",),
    "repro.net.kvstore": ("KeyValueStore",),
    "repro.net.pop3": ("Pop3Server",),
    "repro.net.quoteserver": ("QuoteServer",),
    "repro.net.smtpd": ("SmtpServer",),
    "repro.net.winregistry": ("RegistryServer",),
})
