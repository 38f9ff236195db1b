"""``afctl doctor`` — a diagnostics engine.

The observability plane (PRs 4–8) produces snapshots, span exports and
chaos reports; this package interprets them.  Diagnostics consume and
produce plain files — an evidence *bundle* directory in, a ranked
findings report out — so they compose with everything else in the
system exactly like active files themselves do.

Public surface:

* :class:`~repro.doctor.engine.Evidence` — load a bundle directory or
  capture one live from a running sentinel host;
* :func:`~repro.doctor.engine.run_doctor` — run every analyzer
  (declarative YAML checks + span-tree analyzers) and emit the report;
* :func:`~repro.doctor.engine.render_report` — the summary tree.

See DESIGN.md "Diagnostics engine" for how to add a check.
"""

from repro.doctor.engine import (  # noqa: F401
    Analyzer,
    Evidence,
    Finding,
    build_analyzers,
    render_report,
    run_doctor,
)

__all__ = ["Analyzer", "Evidence", "Finding", "build_analyzers",
           "render_report", "run_doctor"]
