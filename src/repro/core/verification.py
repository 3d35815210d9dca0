"""Verify a compiled design against its golden software execution.

This is the infrastructure's core contract (paper §2): run the original
algorithm in software and the compiled hardware in simulation over the
same memory contents, then compare data word by word.  Any divergence —
a scheduling race, a mis-bound mux, a broken optimization pass — shows
up as a concrete address/expected/actual triple.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import Design
from ..golden.runner import run_golden
from ..obs.coverage import CoverageCollector, CoverageReport
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgBatchExecutor, RtgExecutor, RtgRunResult
from ..sim.batched import BatchUnsupported
from ..sim.probe import Probe
from ..util.files import MemoryImage, MemoryMismatch, compare_images

__all__ = ["MemoryCheck", "VerificationResult", "verify_design",
           "BatchVerificationResult", "verify_design_batch",
           "prepare_images", "golden_result"]


@dataclass
class MemoryCheck:
    """The comparison outcome for one memory resource."""

    memory: str
    role: str
    words: int
    mismatches: List[MemoryMismatch] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.mismatches


@dataclass
class VerificationResult:
    """Everything one verification run produced."""

    design: str
    checks: List[MemoryCheck]
    cycles: int
    reconfigurations: int
    golden_seconds: float
    simulation_seconds: float
    rtg_result: Optional[RtgRunResult] = None
    evaluations: int = 0
    backend: str = "event"
    #: functional coverage, populated when ``verify_design(coverage=True)``
    coverage: Optional[CoverageReport] = None
    #: per-signal ``(time, value)`` samples for ``probe_signals`` (the
    #: paper's "access to values on certain connections")
    probe_samples: Dict[str, List[Tuple[int, int]]] = \
        field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failed_checks(self) -> List[MemoryCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"[{status}] {self.design}: {self.cycles} cycles, "
            f"{self.reconfigurations} reconfiguration(s), "
            f"sim {self.simulation_seconds:.3f}s, "
            f"golden {self.golden_seconds:.3f}s"
        ]
        for check in self.checks:
            if check.passed:
                lines.append(f"  {check.memory}: {check.words} words OK")
            else:
                lines.append(
                    f"  {check.memory}: {len(check.mismatches)} "
                    f"mismatch(es), first: "
                    f"{check.mismatches[0].describe(16)}"
                )
        return "\n".join(lines)


def prepare_images(design: Design,
                   inputs: Optional[Mapping[str, Union[MemoryImage,
                                                       Sequence[int]]]] = None
                   ) -> Dict[str, MemoryImage]:
    """Fresh images for every design memory, filled from *inputs*.

    *inputs* values may be :class:`MemoryImage` (copied) or plain word
    sequences.  Memories without input data start zeroed.  The internal
    spill memory is never initialised from inputs.
    """
    inputs = dict(inputs or {})
    images: Dict[str, MemoryImage] = {}
    for name, spec in design.arrays.items():
        if name == SPILL_MEMORY:
            images[name] = MemoryImage(spec.width, spec.depth, name=name)
            continue
        supplied = inputs.pop(name, None)
        if supplied is None:
            images[name] = MemoryImage(spec.width, spec.depth, name=name)
        elif isinstance(supplied, MemoryImage):
            if supplied.width != spec.width or supplied.depth != spec.depth:
                raise ValueError(
                    f"input {name!r}: image is "
                    f"{supplied.width}x{supplied.depth}, design expects "
                    f"{spec.width}x{spec.depth}"
                )
            images[name] = supplied.copy(name=name)
        else:
            images[name] = MemoryImage(spec.width, spec.depth,
                                       words=list(supplied), name=name)
    if inputs:
        raise ValueError(
            f"inputs supplied for unknown arrays: {sorted(inputs)}"
        )
    return images


def golden_result(design: Design, func: Callable,
                  base_images: Mapping[str, MemoryImage]
                  ) -> Dict[str, MemoryImage]:
    """The golden software execution over copies of *base_images*
    (every array but the spill memory)."""
    array_specs = {name: spec for name, spec in design.arrays.items()
                   if name != SPILL_MEMORY}
    images = {name: base_images[name].copy() for name in array_specs}
    run_golden(func, array_specs, images, design.params)
    return images


def verify_design(design: Design, func: Callable,
                  inputs: Optional[Mapping[str, Union[MemoryImage,
                                                      Sequence[int]]]] = None,
                  *,
                  compare: str = "all",
                  fsm_mode: str = "generated",
                  control_mode: str = "generated",
                  backend: str = "event",
                  max_cycles: int = 50_000_000,
                  mismatch_limit: int = 32,
                  trace_dir=None,
                  coverage: bool = False,
                  probe_signals: Sequence[str] = (),
                  ledger=None) -> VerificationResult:
    """Run golden + simulation over identical inputs and compare memories.

    ``compare`` selects which memories are checked: ``"all"`` (every
    array except the spill memory) or ``"outputs"`` (only
    ``role="output"`` arrays).  ``trace_dir`` dumps one VCD waveform
    per executed configuration.  ``backend`` picks the simulation kernel
    (see :data:`repro.sim.SIMULATOR_BACKENDS`); every backend produces
    identical verdicts, they differ only in speed.  ``coverage=True``
    collects FSM state/transition and operator-activation coverage into
    ``result.coverage`` (see :mod:`repro.obs.coverage`).
    ``probe_signals`` names signals to record: every configuration that
    has a signal of that name gets a :class:`~repro.sim.Probe` attached
    for its run (scoped as a context manager, so no watcher survives
    the run) and the ``(time, value)`` samples land in
    ``result.probe_samples``.  Note a probe is a foreign watcher to the
    compiled kernel, which then conservatively falls back to the event
    kernel — observation costs speed, never correctness.  ``ledger`` (a
    :class:`repro.obs.Ledger` or a path) appends the result as one
    ``verify`` row once the comparison is done.
    """
    if compare not in ("all", "outputs"):
        raise ValueError(f"compare must be 'all' or 'outputs', got {compare!r}")

    base_images = prepare_images(design, inputs)
    array_specs = {name: spec for name, spec in design.arrays.items()
                   if name != SPILL_MEMORY}

    with span("verify.golden", "verify", design=design.name) as golden:
        golden_images = golden_result(design, func, base_images)

    collector = CoverageCollector() if coverage else None
    context = ReconfigurationContext.from_rtg(design.rtg,
                                              initial=base_images)
    executor = RtgExecutor(design.rtg, context, fsm_mode=fsm_mode,
                           control_mode=control_mode, backend=backend,
                           max_cycles_per_configuration=max_cycles,
                           trace_dir=trace_dir, coverage=collector)
    probe_samples: Dict[str, List[Tuple[int, int]]] = {}
    with span("verify.simulate", "verify", design=design.name,
              backend=backend) as simulate, ExitStack() as probes:
        if probe_signals:
            attached: List[Tuple[str, Probe]] = []

            def attach_probes(sim_design) -> None:
                for name in probe_signals:
                    signal = sim_design.sim.signals.get(name)
                    if signal is not None:
                        probe = probes.enter_context(
                            Probe(sim_design.sim, signal))
                        attached.append((name, probe))

            executor.on_configure = attach_probes
        rtg_result = executor.run()
        if probe_signals:
            for name, probe in attached:
                probe_samples.setdefault(name, []).extend(probe.samples)

    checks: List[MemoryCheck] = []
    with span("verify.compare", "verify", design=design.name):
        for name, spec in array_specs.items():
            if compare == "outputs" and spec.role != "output":
                continue
            mismatches = compare_images(golden_images[name],
                                        context.memory(name),
                                        limit=mismatch_limit)
            checks.append(MemoryCheck(name, spec.role, words=spec.depth,
                                      mismatches=mismatches))

    result = VerificationResult(
        design=design.name,
        checks=checks,
        cycles=rtg_result.total_cycles,
        reconfigurations=rtg_result.reconfigurations,
        golden_seconds=golden.seconds,
        simulation_seconds=simulate.seconds,
        rtg_result=rtg_result,
        evaluations=rtg_result.total_evaluations,
        backend=backend,
        coverage=collector.report if collector is not None else None,
        probe_samples=probe_samples,
    )
    if ledger is not None:
        from ..obs.ledger import ledger_sink
        with ledger_sink(ledger) as sink:
            sink.record_verification(result, size=design.params)
    return result


@dataclass
class BatchVerificationResult:
    """One batched verification: N stimulus sets, one elaboration each
    configuration, per-lane verdicts."""

    design: str
    backend: str
    batch_size: int
    #: one full :class:`VerificationResult` per stimulus set, in input
    #: order; each lane's ``simulation_seconds`` is the amortized
    #: per-lane share of the batch window
    lanes: List[VerificationResult]
    golden_seconds: float
    #: wall-clock of the whole batch simulation, elaborations included
    simulation_seconds: float
    lanes_converged: float = 1.0
    rounds: int = 0
    elaborations: int = 0
    #: False when the design refused the batch fast path and the lanes
    #: ran serially (identical verdicts, no amortization)
    batched: bool = True
    fallback_reason: Optional[str] = None
    #: coverage is a per-run concern; batch runs don't collect it
    coverage: Optional[CoverageReport] = None

    @property
    def passed(self) -> bool:
        return all(lane.passed for lane in self.lanes)

    # aggregate views so recorders/metrics can treat a batch result
    # like a plain VerificationResult
    @property
    def cycles(self) -> int:
        return sum(lane.cycles for lane in self.lanes)

    @property
    def evaluations(self) -> int:
        return sum(lane.evaluations for lane in self.lanes)

    @property
    def reconfigurations(self) -> int:
        return sum(lane.reconfigurations for lane in self.lanes)

    @property
    def lane_seconds(self) -> float:
        """Amortized simulation seconds per stimulus set."""
        if not self.batch_size:
            return 0.0
        return self.simulation_seconds / self.batch_size

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        mode = "batched" if self.batched else \
            f"serial fallback ({self.fallback_reason})"
        lines = [
            f"[{status}] {self.design}: batch of {self.batch_size} "
            f"({mode}), sim {self.simulation_seconds:.3f}s "
            f"({self.lane_seconds * 1000:.1f}ms/lane), "
            f"golden {self.golden_seconds:.3f}s, "
            f"converged {self.lanes_converged:.0%}"
        ]
        for index, lane in enumerate(self.lanes):
            if not lane.passed:
                failed = lane.failed_checks()
                lines.append(
                    f"  lane {index}: {len(failed)} failed check(s), "
                    f"first: {failed[0].mismatches[0].describe(16)}")
        return "\n".join(lines)


def verify_design_batch(design: Design, func: Callable,
                        inputs_list: Sequence[Mapping[str,
                                                      Union[MemoryImage,
                                                            Sequence[int]]]],
                        *,
                        compare: str = "all",
                        fsm_mode: str = "generated",
                        control_mode: str = "generated",
                        max_cycles: int = 50_000_000,
                        mismatch_limit: int = 32,
                        ledger=None) -> BatchVerificationResult:
    """Verify *design* against N stimulus sets with one elaboration.

    Semantically equivalent to calling :func:`verify_design` once per
    entry of *inputs_list* with ``backend="batched"`` — same golden
    runs, same word-by-word comparisons, same verdicts — but the
    simulation advances all sets in lockstep through a single
    elaborated kernel (see :mod:`repro.sim.batched`), so the per-run
    fixed costs (elaboration, codegen binding, settle, RTG dispatch)
    are paid once per configuration instead of once per stimulus set.

    Designs that cannot take the batch fast path (no Moore ``done``
    line, foreign watchers, codegen fallback) are detected before any
    lane runs and fall back to serial execution; the result then has
    ``batched=False`` and carries the reason.
    """
    if compare not in ("all", "outputs"):
        raise ValueError(f"compare must be 'all' or 'outputs', got {compare!r}")

    array_specs = {name: spec for name, spec in design.arrays.items()
                   if name != SPILL_MEMORY}
    backend = "batched"

    lane_base: List[Dict[str, MemoryImage]] = []
    lane_golden: List[Dict[str, MemoryImage]] = []
    with span("verify.golden", "verify", design=design.name,
              batch=len(inputs_list)) as golden:
        for inputs in inputs_list:
            base_images = prepare_images(design, inputs)
            lane_base.append(base_images)
            lane_golden.append(golden_result(design, func, base_images))

    contexts = [ReconfigurationContext.from_rtg(design.rtg, initial=base)
                for base in lane_base]
    batched = True
    fallback_reason = None
    with span("verify.simulate", "verify", design=design.name,
              backend=backend, batch=len(inputs_list)) as simulate:
        executor = RtgBatchExecutor(design.rtg, contexts,
                                    fsm_mode=fsm_mode,
                                    control_mode=control_mode,
                                    max_cycles_per_configuration=max_cycles)
        try:
            batch_result = executor.run()
            lane_rtg = batch_result.lanes
            lanes_converged = batch_result.lanes_converged
            rounds = batch_result.rounds
            elaborations = batch_result.elaborations
        except BatchUnsupported as exc:
            # serial fallback: same backend class, one lane at a time
            batched = False
            fallback_reason = str(exc)
            lane_rtg = []
            for context in contexts:
                serial = RtgExecutor(design.rtg, context,
                                     fsm_mode=fsm_mode,
                                     control_mode=control_mode,
                                     backend=backend,
                                     max_cycles_per_configuration=max_cycles)
                lane_rtg.append(serial.run())
            lanes_converged = 1.0
            rounds = 0
            elaborations = sum(len(result.runs) for result in lane_rtg)
    amortized = simulate.seconds / max(len(inputs_list), 1)

    lanes: List[VerificationResult] = []
    with span("verify.compare", "verify", design=design.name,
              batch=len(inputs_list)):
        for lane, context in enumerate(contexts):
            checks: List[MemoryCheck] = []
            for name, spec in array_specs.items():
                if compare == "outputs" and spec.role != "output":
                    continue
                mismatches = compare_images(lane_golden[lane][name],
                                            context.memory(name),
                                            limit=mismatch_limit)
                checks.append(MemoryCheck(name, spec.role, words=spec.depth,
                                          mismatches=mismatches))
            lanes.append(VerificationResult(
                design=design.name,
                checks=checks,
                cycles=lane_rtg[lane].total_cycles,
                reconfigurations=lane_rtg[lane].reconfigurations,
                golden_seconds=golden.seconds / max(len(inputs_list), 1),
                simulation_seconds=amortized,
                rtg_result=lane_rtg[lane],
                evaluations=lane_rtg[lane].total_evaluations,
                backend=backend,
            ))

    result = BatchVerificationResult(
        design=design.name,
        backend=backend,
        batch_size=len(inputs_list),
        lanes=lanes,
        golden_seconds=golden.seconds,
        simulation_seconds=simulate.seconds,
        lanes_converged=lanes_converged,
        rounds=rounds,
        elaborations=elaborations,
        batched=batched,
        fallback_reason=fallback_reason,
    )
    if ledger is not None:
        from ..obs.ledger import ledger_sink
        with ledger_sink(ledger) as sink:
            sink.record_batch_verification(result, size=design.params)
    return result
