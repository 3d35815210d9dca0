"""Fault-injection campaigns: fan a faultload out, classify every run.

Each injection replays the design over the same stimulus with exactly
one fault armed and classifies the outcome against the fault-free
golden execution:

``masked``
    The run finished and every output memory matches golden — the
    fault was absorbed (overwritten, dead logic, out of the live cone).
``sdc``
    The run finished but at least one output word differs: silent data
    corruption, the verdict dependability studies care most about.
``hang``
    The design never asserted ``done`` within the cycle budget
    (derived from the fault-free cycle count × ``hang_factor``).
``crash``
    The simulation itself failed — combinational loop from a forced
    line, out-of-bounds write from a flipped address register, a
    mutated design that no longer elaborates, etc.

:func:`run_campaign` mirrors the test-suite fork pool: the design,
golden images and faultload live in a module global that workers
inherit over ``fork``, each task ships only a fault index, workers
never raise, and the ledger is touched only in the parent after the
pool has drained.  With ``backend="batched"`` the ``mem_flip`` subset
of the faultload — the only kind that needs no kernel changes, just
different initial images — advances many injections per elaboration in
lockstep lanes, falling back to serial classification whenever a lane
times out (a hang poisons the whole batch's timeout signal).
"""

from __future__ import annotations

import functools
import multiprocessing
import traceback
from concurrent.futures import (ProcessPoolExecutor,
                                TimeoutError as FuturesTimeout,
                                as_completed)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import Design
from ..core.faults import inject_fault, single_configuration
from ..core.verification import golden_result, prepare_images
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgBatchExecutor, RtgExecutor
from ..sim.batched import BatchUnsupported
from ..sim.errors import SimulationTimeout
from ..util.files import MemoryImage, compare_images
from .faultload import FaultDescriptor
from .hooks import attach_fault

__all__ = ["InjectionResult", "CampaignReport", "apply_mem_flip",
           "run_injection", "run_campaign", "VERDICTS"]

VERDICTS = ("masked", "sdc", "hang", "crash")


@dataclass
class InjectionResult:
    """The classified outcome of one injection run."""

    fault: Optional[FaultDescriptor]
    verdict: str  # masked | sdc | hang | crash
    cycles: int
    seconds: float
    note: str = ""
    #: how the fault took effect: kernel | watcher | cycle-hook |
    #: image | mutation | none (fault-free baseline)
    mechanism: str = "none"


@dataclass
class CampaignReport:
    """One campaign: per-fault verdicts plus the fault-free baseline."""

    app: str
    backend: str
    results: List[InjectionResult] = field(default_factory=list)
    baseline: Optional[InjectionResult] = None
    wall_seconds: float = 0.0
    jobs: int = 1
    seed: int = 0
    cycle_budget: int = 0
    #: faults the campaign set out to classify; > len(results) when a
    #: time budget stopped the campaign early
    planned: int = 0

    def tally(self) -> Dict[str, int]:
        counts = {verdict: 0 for verdict in VERDICTS}
        for result in self.results:
            counts[result.verdict] = counts.get(result.verdict, 0) + 1
        return counts

    def coverage_table(self) -> Dict[str, Dict[str, int]]:
        """Fault-kind × verdict counts (the fault-coverage table)."""
        table: Dict[str, Dict[str, int]] = {}
        for result in self.results:
            kind = result.fault.kind if result.fault else "none"
            row = table.setdefault(kind,
                                   {verdict: 0 for verdict in VERDICTS})
            row[result.verdict] = row.get(result.verdict, 0) + 1
        return table

    @property
    def hang_reproducers(self) -> List[FaultDescriptor]:
        return [result.fault for result in self.results
                if result.verdict == "hang" and result.fault is not None]

    @property
    def sdc_results(self) -> List[InjectionResult]:
        """Silent-data-corruption verdicts — the divergence-triage feed."""
        return [result for result in self.results
                if result.verdict == "sdc" and result.fault is not None]

    def summary(self) -> str:
        counts = self.tally()
        lines = [
            f"campaign {self.app} ({self.backend}): "
            f"{len(self.results)} injection(s), "
            + ", ".join(f"{counts[v]} {v}" for v in VERDICTS)
            + f", wall {self.wall_seconds:.2f}s (jobs={self.jobs}, "
              f"budget {self.cycle_budget} cycles)"
        ]
        if self.planned > len(self.results):
            lines.append(
                f"  time budget hit: {len(self.results)}/{self.planned} "
                f"fault(s) classified")
        for kind, row in sorted(self.coverage_table().items()):
            total = sum(row.values())
            lines.append(
                f"  {kind:<9} " +
                " ".join(f"{verdict}={row[verdict]}" for verdict in VERDICTS)
                + f"  ({total} total)")
        return "\n".join(lines)


def apply_mem_flip(images: Mapping[str, MemoryImage],
                   fault: FaultDescriptor) -> None:
    """Flip one bit of one word in *images* (pre-run SEU)."""
    image = images.get(fault.target)
    if image is None:
        raise ValueError(f"no memory named {fault.target!r}")
    if not 0 <= fault.word < image.depth:
        raise ValueError(f"word {fault.word} out of range for "
                         f"{fault.target!r} (depth {image.depth})")
    if fault.bit >= image.width:
        raise ValueError(f"bit {fault.bit} out of range for "
                         f"{fault.target!r} (width {image.width})")
    image.write(fault.word, image.read(fault.word) ^ (1 << fault.bit))


def _classify(design: Design, context, golden_images, fault,
              mismatch_limit: int) -> InjectionResult:
    """Compare memories after a completed run (masked vs sdc).

    Fault-free and mutated runs compare every array (the bit-exact
    differential guarantee, as ``verify_design(compare="all")``);
    hardware-faulted runs compare output-role arrays, since a
    ``mem_flip`` on an input memory diverges from golden's pristine
    inputs by construction.
    """
    outputs_only = fault is not None and fault.kind != "mutation"
    for name, spec in design.arrays.items():
        if name == SPILL_MEMORY or (outputs_only and spec.role != "output"):
            continue
        mismatches = compare_images(golden_images[name],
                                    context.memory(name),
                                    limit=mismatch_limit)
        if mismatches:
            return InjectionResult(
                fault, "sdc", 0, 0.0,
                note=f"{name}: {mismatches[0].describe(16)}")
    return InjectionResult(fault, "masked", 0, 0.0)


def run_injection(design: Design, func: Callable,
                  fault: Optional[FaultDescriptor],
                  inputs: Optional[Mapping] = None,
                  *,
                  backend: str = "compiled",
                  max_cycles: int = 1_000_000,
                  golden_images: Optional[Dict[str, MemoryImage]] = None,
                  fsm_mode: str = "generated",
                  mismatch_limit: int = 8) -> InjectionResult:
    """Run *design* once with *fault* armed (or fault-free when None).

    *golden_images* (the fault-free software result) may be supplied to
    amortize the golden run across a campaign; when omitted it is
    computed here from the same inputs.  A ``mutation`` is applied to
    a copy of *design* before elaboration; a copy that cannot be built
    or elaborated classifies as ``crash``.
    """
    base_images = prepare_images(design, inputs)
    if golden_images is None:
        golden_images = golden_result(design, func, base_images)

    mechanism = "none"
    if fault is not None and fault.kind == "mem_flip":
        apply_mem_flip(base_images, fault)
        mechanism = "image"
    elif fault is not None and fault.kind == "mutation":
        mechanism = "mutation"
    handles: List = []
    verdict: Optional[InjectionResult] = None
    cycles = 0
    with span("inject.run", "inject", design=design.name,
              fault=fault.fault_id if fault else "baseline") as run_span:
        try:
            run_design = (inject_fault(design, fault.mutation)
                          if mechanism == "mutation" else design)
            context = ReconfigurationContext.from_rtg(run_design.rtg,
                                                      initial=base_images)
            executor = RtgExecutor(run_design.rtg, context,
                                   fsm_mode=fsm_mode, backend=backend,
                                   max_cycles_per_configuration=max_cycles)
            if fault is not None and fault.kind in ("stuck", "reg_flip"):
                executor.on_configure = lambda sim_design: handles.append(
                    attach_fault(sim_design, fault))
            rtg_result = executor.run()
            cycles = rtg_result.total_cycles
        except SimulationTimeout:
            verdict = InjectionResult(
                fault, "hang", max_cycles, 0.0,
                note=f"no done within {max_cycles} cycles")
        except Exception as exc:  # noqa: BLE001 - any failure is a verdict
            verdict = InjectionResult(
                fault, "crash", cycles, 0.0,
                note=f"{type(exc).__name__}: {exc}")

    if handles:
        mechanism = handles[0].mechanism
    if verdict is None:
        verdict = _classify(design, context, golden_images, fault,
                            mismatch_limit)
        verdict.cycles = cycles
    verdict.seconds = run_span.seconds
    verdict.mechanism = mechanism
    return verdict


# ----------------------------------------------------------------------
# Batched mem_flip lanes
# ----------------------------------------------------------------------
def _run_mem_flip_batch(design: Design, faults: Sequence[FaultDescriptor],
                        inputs, golden_images, inject: Callable, *,
                        max_cycles: int,
                        fsm_mode: str) -> List[InjectionResult]:
    """Advance one injection per lane through a single elaboration.

    Falls back to serial :func:`run_injection` (batched backend) when
    the design refuses the batch fast path or any lane hangs — the
    batch executor reports a timeout for the whole group, so verdicts
    must then be recovered one lane at a time.
    """
    contexts = []
    for fault in faults:
        base_images = prepare_images(design, inputs)
        apply_mem_flip(base_images, fault)
        contexts.append(ReconfigurationContext.from_rtg(
            design.rtg, initial=base_images))
    executor = RtgBatchExecutor(design.rtg, contexts, fsm_mode=fsm_mode,
                                max_cycles_per_configuration=max_cycles)
    try:
        with span("inject.lanes", "inject", design=design.name,
                  batch=len(faults)) as lanes_span:
            batch_result = executor.run()
    except (BatchUnsupported, SimulationTimeout):
        return [inject(fault) for fault in faults]
    lane_seconds = lanes_span.seconds / max(len(faults), 1)

    results: List[InjectionResult] = []
    for lane, fault in enumerate(faults):
        result = _classify(design, contexts[lane], golden_images, fault,
                           mismatch_limit=8)
        result.cycles = batch_result.lanes[lane].total_cycles
        result.seconds = lane_seconds
        result.mechanism = "image"
        results.append(result)
    return results


# ----------------------------------------------------------------------
# The campaign runner (fork-pool, mirroring core.testsuite)
# ----------------------------------------------------------------------
# Worker-side handle: the design and golden images do not need to be
# pickled — with the fork start method the children inherit this module
# global, and the parent ships only a fault index per task.
_ACTIVE_CAMPAIGN: Optional[tuple] = None  # (injector, faultload)


def _pool_inject(index: int) -> InjectionResult:
    """Worker entry point; must never raise (see testsuite._pool_run)."""
    try:
        inject, faults = _ACTIVE_CAMPAIGN
        return inject(faults[index])
    except BaseException as exc:  # noqa: BLE001 - worker boundary
        fault = None
        try:
            fault = _ACTIVE_CAMPAIGN[1][index]
        except Exception:  # noqa: BLE001 - campaign state may be unusable
            pass
        return InjectionResult(fault, "crash", 0, 0.0,
                               note=f"{type(exc).__name__}: {exc}\n"
                                    f"{traceback.format_exc()}")


def run_campaign(design: Design, func: Callable,
                 faults: Sequence[FaultDescriptor],
                 inputs: Optional[Mapping] = None,
                 *,
                 app: Optional[str] = None,
                 backend: str = "compiled",
                 jobs: int = 1,
                 seed: int = 0,
                 hang_factor: int = 4,
                 max_cycles: int = 50_000_000,
                 fsm_mode: str = "generated",
                 time_budget: Optional[float] = None,
                 ledger=None) -> CampaignReport:
    """Classify every fault in *faults* against the golden execution.

    The fault-free baseline runs first: it must classify as ``masked``
    (anything else means the campaign's verdicts would be meaningless)
    and its cycle count sets the hang budget (``cycles × hang_factor``,
    at least 1000, at most ``max_cycles``).  ``jobs`` > 1 fans
    injections over a fork pool; ``backend="batched"`` additionally
    groups the ``mem_flip`` faults into lockstep lanes and runs the
    ``stuck``/``reg_flip`` faults on the event kernel.
    ``time_budget`` (seconds, measured from campaign start) stops
    scheduling new injections once exceeded — already-running ones
    still land, so the nightly job degrades to a shorter classified
    prefix instead of dying mid-pool.
    ``ledger`` appends one ``inject`` run row plus one ``fault_runs``
    row per verdict (schema v4) in the parent process only.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    single_configuration(design)
    name = app or design.name
    report = CampaignReport(app=name, backend=backend, jobs=jobs, seed=seed,
                            planned=len(faults))
    with span("inject.campaign", "inject", app=name, backend=backend,
              jobs=jobs, faults=len(faults)) as campaign_span:
        golden_images = golden_result(design, func,
                                      prepare_images(design, inputs))

        baseline = run_injection(design, func, None, inputs,
                                 backend=backend, max_cycles=max_cycles,
                                 golden_images=golden_images,
                                 fsm_mode=fsm_mode)
        report.baseline = baseline
        if baseline.verdict != "masked":
            raise ValueError(
                f"fault-free baseline classifies as {baseline.verdict!r}, "
                f"not 'masked' — campaign verdicts would be meaningless "
                f"({baseline.note})")
        budget = min(max(baseline.cycles * hang_factor, 1000), max_cycles)
        report.cycle_budget = budget

        run = functools.partial(run_injection, design, func,
                                inputs=inputs, max_cycles=budget,
                                golden_images=golden_images,
                                fsm_mode=fsm_mode)

        def inject(fault: FaultDescriptor) -> InjectionResult:
            # a batched campaign's signal faults never ride lanes (one
            # flip latch per kernel) and run on the event kernel's hooks,
            # since the fused kernel is not faster for every app
            to_event = (backend == "batched"
                        and fault.kind in ("stuck", "reg_flip"))
            return run(fault, backend="event" if to_event else backend)
        faults = list(faults)
        slots: List[Optional[InjectionResult]] = [None] * len(faults)
        pending = list(range(len(faults)))

        # batched lockstep lanes for the mem_flip subset
        if backend == "batched" and len(faults) > 1:
            flips = [index for index in pending
                     if faults[index].kind == "mem_flip"]
            if len(flips) > 1:
                lane_results = _run_mem_flip_batch(
                    design, [faults[index] for index in flips], inputs,
                    golden_images, inject, max_cycles=budget,
                    fsm_mode=fsm_mode)
                for index, result in zip(flips, lane_results):
                    slots[index] = result
                pending = [index for index in pending
                           if slots[index] is None]

        parallel = (
            jobs > 1 and len(pending) > 1
            and "fork" in multiprocessing.get_all_start_methods()
        )
        if parallel:
            global _ACTIVE_CAMPAIGN
            _ACTIVE_CAMPAIGN = (inject, faults)
            context = multiprocessing.get_context("fork")
            timeout = (None if time_budget is None
                       else max(time_budget - campaign_span.seconds, 0.0))
            try:
                with ProcessPoolExecutor(max_workers=min(jobs, len(pending)),
                                         mp_context=context) as pool:
                    futures = {pool.submit(_pool_inject, index): index
                               for index in pending}
                    try:
                        for future in as_completed(futures,
                                                   timeout=timeout):
                            slots[futures[future]] = future.result()
                    except FuturesTimeout:
                        # drop what has not started; leaving the block
                        # joins the pool, so in-flight injections land
                        for future in futures:
                            future.cancel()
                for future, index in futures.items():
                    if slots[index] is None and future.done() \
                            and not future.cancelled():
                        slots[index] = future.result()
            except BrokenProcessPool as exc:
                unfinished = [faults[index].fault_id for index in pending
                              if slots[index] is None]
                raise RuntimeError(
                    f"campaign worker process died while running "
                    f"fault(s) {unfinished[:8]}; rerun with jobs=1 to "
                    f"reproduce in-process") from exc
            finally:
                _ACTIVE_CAMPAIGN = None
        else:
            for index in pending:
                if time_budget is not None \
                        and campaign_span.seconds > time_budget:
                    break
                slots[index] = inject(faults[index])

        report.results = [result for result in slots if result is not None]
        campaign_span.set("verdicts", report.tally())
    report.wall_seconds = campaign_span.seconds

    if ledger is not None:
        from ..obs.ledger import ledger_sink
        with ledger_sink(ledger) as sink:
            sink.record_injection_campaign(report, size=design.params)
    return report
