"""Observability: tracing, metrics and functional coverage.

The paper's premise is that language-level simulation gives visibility a
raw FPGA cannot — probes, assertions, stop mechanisms.  This package
applies the same idea to the test infrastructure *itself*:

* :mod:`repro.obs.trace` — hierarchical timing spans recorded to an
  append-only JSONL file (safe across the fork-based worker pools) and
  exported as Chrome/Perfetto ``trace_event`` JSON, so one
  ``TestSuite.run(jobs=N)`` or fuzz campaign renders as a single
  timeline including every worker process;
* :mod:`repro.obs.metrics` — counters (events processed, cycles, FSM
  transitions, cache hits/misses, fuzz outcome tallies) aggregated into
  a machine-readable ``metrics.json``;
* :mod:`repro.obs.coverage` — functional coverage: FSM state and
  transition coverage plus datapath operator-activation coverage,
  collected from all four simulation backends;
* :mod:`repro.obs.ledger` — the cross-run half: an SQLite run ledger
  persisting timings, coverage, cache rates and fuzz tallies per run
  (``--ledger`` / ``$REPRO_LEDGER``), read back by
  :mod:`repro.obs.regress` (the median+MAD regression sentinel,
  ``repro obs compare``) and :mod:`repro.obs.dashboard` (the
  self-contained HTML dashboard and Prometheus textfile exporter).

Spans are the only clock: every :func:`repro.obs.trace.span` times
itself, and reported durations are read from spans; with no recorder
installed a span writes nothing.  No coverage hooks or watchers exist
unless a collector is attached.
"""

from .coverage import (ConfigurationCoverage, CoverageCollector,
                       CoverageReport, FsmCoverage, OperatorCoverage,
                       format_coverage)
from .dashboard import export_json, export_prometheus, render_dashboard
from .ledger import (LEDGER_ENV, Ledger, LedgerError, SCHEMA_VERSION,
                     ledger_from_env)
from .metrics import (Histogram, Metrics, campaign_metrics, flow_metrics,
                      render_prometheus_histogram, serve_metrics,
                      suite_metrics, verification_metrics)
from .profile import (KernelProfiler, ProfileError, ProfileReport,
                      profile_case)
from .regress import (Finding, RegressionReport, Thresholds, compare_run)
from .trace import (Span, TraceRecorder, active_recorder, current_context,
                    event, export_chrome_trace, install, new_trace_id,
                    recording, span, start_span, trace_context, uninstall)
# triage pulls in sim/inject layers lazily; keep this import last
from .triage import (Suspect, TriageError, TriageRecord, TriageResult,
                     attach_to_ledger, locate_divergence,
                     render_triage_html, triage_backends, triage_fault,
                     triage_fuzz_entry)

__all__ = [
    "Span", "TraceRecorder", "recording", "span", "event", "start_span",
    "active_recorder", "install", "uninstall", "export_chrome_trace",
    "new_trace_id", "current_context", "trace_context",
    "Metrics", "Histogram", "render_prometheus_histogram",
    "verification_metrics", "suite_metrics", "flow_metrics",
    "campaign_metrics", "serve_metrics",
    "KernelProfiler", "ProfileError", "ProfileReport", "profile_case",
    "CoverageCollector", "CoverageReport", "ConfigurationCoverage",
    "FsmCoverage", "OperatorCoverage", "format_coverage",
    "Ledger", "LedgerError", "SCHEMA_VERSION", "LEDGER_ENV",
    "ledger_from_env",
    "Thresholds", "Finding", "RegressionReport", "compare_run",
    "render_dashboard", "export_prometheus", "export_json",
    "TriageError", "TriageRecord", "TriageResult", "Suspect",
    "locate_divergence", "triage_fault", "triage_backends",
    "triage_fuzz_entry", "render_triage_html", "attach_to_ledger",
]
