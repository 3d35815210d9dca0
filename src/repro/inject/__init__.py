"""The fault-campaign engine: simulation-based fault injection (SBFI).

This package injects *hardware-fault-shaped* upsets into the running
simulation — bit-flips in registers and memory words, stuck-at lines,
transient upsets pinned to an FSM state — and *compiler-bug-shaped*
mutations of the design (``mutation``), and classifies each run
against the golden software execution as ``masked``, ``sdc`` (silent
data corruption), ``hang`` (cycle-budget timeout) or ``crash``.
:func:`repro.core.faults.run_campaign` is an adapter over it.

The three layers:

* :mod:`~repro.inject.faultload` — seeded, reproducible fault
  descriptors enumerated from a compiled design, serialisable to JSON
  for replay;
* :mod:`~repro.inject.hooks` — how a descriptor takes effect in a
  simulator: compiled/traced kernels regenerate with forcing/flip
  lines (mirroring coverage instrumentation), the event kernel uses
  signal watchers and post-settle cycle hooks;
* :mod:`~repro.inject.campaign` — fans a faultload across the fork
  pool, tallies verdicts, and records per-fault rows into the run
  ledger (schema v4) and the dashboard.
"""

from .campaign import (CampaignReport, InjectionResult, run_campaign,
                       run_injection)
from .faultload import (FaultDescriptor, FaultloadGenerator,
                        load_faultload, output_adjacent_nets,
                        save_faultload)
from .hooks import attach_fault, kernel_spec

__all__ = [
    "FaultDescriptor", "FaultloadGenerator", "load_faultload",
    "save_faultload", "output_adjacent_nets",
    "attach_fault", "kernel_spec",
    "InjectionResult", "CampaignReport", "run_injection", "run_campaign",
]
