"""Differential execution harness: one program, four executions.

For every generated program the harness compiles it, runs the golden
Python execution, then drives the design through each registered
simulation backend and cross-checks everything the infrastructure can
observe: final memory contents (against golden) and cycle counts
(across backends).  The outcome is a single classification:

``pass``
    every backend matches golden bit-for-bit and all cycle counts agree
``compile-crash``
    the compiler raised (including frontend rejections — the generator
    guarantees validity, so any rejection is a bug in one of the two)
``golden-crash``
    the plain-Python run itself raised; by construction this means a
    generator bug, never a compiler bug
``sim-crash``
    a simulation backend raised something other than a timeout
``timeout``
    a backend exceeded the cycle budget
``mismatch``
    a backend produced different memory contents than golden, or the
    backends disagree on the cycle count

Campaigns fan iterations out over a fork-based process pool (the same
machinery as :meth:`repro.core.TestSuite.run`), minimize every failure
with :mod:`repro.fuzz.reduce`, and write reproducers into the corpus
directory for the regression suite to replay.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import compile_function
from ..golden.runner import run_golden
from ..obs.coverage import CoverageCollector
from ..obs.trace import span, start_span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgExecutor
from ..sim import SIMULATOR_BACKENDS
from ..sim.errors import SimulationTimeout
from ..util.files import compare_images
from .generator import GeneratorConfig, generate, make_images
from .ir import FuzzProgram

__all__ = ["Outcome", "FuzzCaseResult", "CampaignReport", "run_program",
           "run_campaign", "run_wave_batched", "DEFAULT_BACKENDS",
           "DEFAULT_MAX_CYCLES"]

DEFAULT_BACKENDS: Tuple[str, ...] = tuple(sorted(SIMULATOR_BACKENDS))
DEFAULT_MAX_CYCLES = 250_000

FAILURE_KINDS = ("compile-crash", "golden-crash", "sim-crash", "mismatch",
                 "timeout")


@dataclass
class Outcome:
    """Classification of one differential run."""

    kind: str
    backend: Optional[str] = None
    detail: str = ""
    exc_type: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.kind != "pass"

    def matches(self, other: "Outcome") -> bool:
        """Reduction predicate: same failure class (and, for crashes,
        the same exception type — so the minimizer cannot wander from
        one bug to a different one)."""
        if self.kind != other.kind:
            return False
        if self.exc_type and other.exc_type:
            return self.exc_type == other.exc_type
        return True

    def describe(self) -> str:
        parts = [self.kind]
        if self.backend:
            parts.append(f"backend={self.backend}")
        if self.exc_type:
            parts.append(self.exc_type)
        text = " ".join(parts)
        if self.detail:
            first = self.detail.strip().splitlines()[0]
            text += f": {first}"
        return text


@dataclass
class FuzzCaseResult:
    seed: int
    outcome: Outcome
    seconds: float
    #: the offending program; shipped back to the parent only on failure
    program: Optional[FuzzProgram] = None
    #: coverage signature of this program's first-backend run — state and
    #: transition labels *without* the design name, so signatures overlap
    #: across generated programs (the FSM naming scheme ``S_{block}_{step}``
    #: is shared) and "new coverage" is meaningful campaign-wide
    coverage_items: Optional[Tuple[str, ...]] = None


@dataclass
class CampaignReport:
    iterations: int = 0
    seed: int = 0
    jobs: int = 1
    wall_seconds: float = 0.0
    counts: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzCaseResult] = field(default_factory=list)
    #: corpus files written for minimized reproducers
    written: List[str] = field(default_factory=list)
    #: union of coverage signatures over the whole campaign
    coverage_items: set = field(default_factory=set)
    #: seeds whose program exercised at least one item no earlier seed
    #: had — the first step toward coverage-guided generation
    new_coverage_seeds: List[int] = field(default_factory=list)
    #: one-time fork-pool spin-up cost, paid before the first wave
    pool_startup_seconds: float = 0.0
    #: dispatch waves served by that single pool
    pool_waves: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def mismatches(self) -> List[FuzzCaseResult]:
        """Mismatch failures with a program — the divergence-triage feed."""
        return [failure for failure in self.failures
                if failure.outcome.kind == "mismatch"
                and failure.program is not None]

    def summary(self) -> str:
        per_kind = ", ".join(f"{kind}={self.counts[kind]}"
                             for kind in sorted(self.counts))
        lines = [
            f"fuzz: {self.iterations} program(s), "
            f"{len(self.failures)} failure(s), "
            f"wall {self.wall_seconds:.2f}s "
            f"(seed={self.seed}, jobs={self.jobs}) [{per_kind}]"
        ]
        if self.coverage_items:
            lines.append(
                f"  coverage: {len(self.coverage_items)} item(s), "
                f"{len(self.new_coverage_seeds)} new-coverage seed(s)")
        if self.pool_waves > 1:
            lines.append(
                f"  pool: {self.pool_waves} wave(s) on one pool, "
                f"startup {self.pool_startup_seconds * 1e3:.0f}ms paid "
                f"once")
        for failure in self.failures:
            lines.append(f"  [FAIL] seed {failure.seed}: "
                         f"{failure.outcome.describe()}")
        for path in self.written:
            lines.append(f"  reproducer: {path}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Single-program differential run
# ----------------------------------------------------------------------
def run_program(program: FuzzProgram, *,
                backends: Sequence[str] = DEFAULT_BACKENDS,
                max_cycles: int = DEFAULT_MAX_CYCLES,
                input_seed: int = 0,
                coverage: Optional[CoverageCollector] = None) -> Outcome:
    """Compile, golden-run and simulate *program*; classify the outcome.

    When a *coverage* collector is supplied it is attached to the first
    backend's execution (one backend suffices — all backends run the
    same control path, and the collector would otherwise triple-count).
    """
    try:
        design = compile_function(
            program.source, program.arrays, dict(program.params),
            name=program.name, word_width=program.word_width,
            n_partitions=program.n_partitions,
        )
    except Exception as exc:  # noqa: BLE001 - classification boundary
        return Outcome("compile-crash", detail=_crash_detail(exc),
                       exc_type=type(exc).__name__)

    inputs = make_images(program, input_seed)
    golden_images = {name: image.copy() for name, image in inputs.items()}
    try:
        run_golden(program.func(), program.arrays, golden_images,
                   dict(program.params))
    except Exception as exc:  # noqa: BLE001 - classification boundary
        return Outcome("golden-crash", detail=_crash_detail(exc),
                       exc_type=type(exc).__name__)

    cycles: Dict[str, int] = {}
    for position, backend in enumerate(backends):
        images = {name: image.copy() for name, image in inputs.items()}
        context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
        executor = RtgExecutor(design.rtg, context, backend=backend,
                               max_cycles_per_configuration=max_cycles,
                               coverage=coverage if position == 0 else None)
        try:
            result = executor.run()
        except SimulationTimeout as exc:
            return Outcome("timeout", backend=backend, detail=str(exc),
                           exc_type=type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - classification boundary
            return Outcome("sim-crash", backend=backend,
                           detail=_crash_detail(exc),
                           exc_type=type(exc).__name__)
        cycles[backend] = result.total_cycles

        for name in program.arrays:
            if name == SPILL_MEMORY:
                continue
            mismatches = compare_images(golden_images[name],
                                        context.memory(name), limit=4)
            if mismatches:
                width = program.arrays[name].width
                shown = "; ".join(m.describe(width) for m in mismatches)
                return Outcome(
                    "mismatch", backend=backend,
                    detail=f"memory {name!r}: {shown}",
                )

    if len(set(cycles.values())) > 1:
        detail = ", ".join(f"{b}={c}" for b, c in sorted(cycles.items()))
        return Outcome("mismatch", detail=f"cycle divergence: {detail}")

    return Outcome("pass")


def _crash_detail(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


# ----------------------------------------------------------------------
# Batched wave execution
# ----------------------------------------------------------------------
def _wave_group_key(design) -> Optional[str]:
    """Grouping key for batched wave execution, or None if ungroupable.

    Extends :func:`repro.core.kernelcache.batch_group_key` (one
    configuration's kernel identity) over the whole RTG: two designs
    with equal keys elaborate identical kernels through identical
    reconfiguration control, so their stimulus sets can share batches.
    """
    from ..core.kernelcache import batch_group_key, digest_parts

    rtg = design.rtg
    parts: List[str] = ["wave-batch-v1", str(rtg.start),
                        str(sorted(rtg.final_configurations))]
    for name in sorted(rtg.configurations):
        ref = rtg.configurations[name]
        if ref.datapath is None or ref.fsm is None:
            return None  # XML-backed configuration: not comparable here
        parts.append(name)
        parts.append(batch_group_key(ref.datapath, ref.fsm))
    for transition in rtg.transitions:
        condition = getattr(transition.condition, "to_python",
                            lambda t=transition: str(t.condition))()
        parts.append(f"{transition.source}->{transition.target}"
                     f":{condition}")
    for name in sorted(rtg.memories):
        decl = rtg.memories[name]
        parts.append(f"mem:{name}:{decl.width}x{decl.depth}")
    return digest_parts(*parts)


def run_wave_batched(programs: Sequence[FuzzProgram], *,
                     input_seed: int = 0,
                     max_cycles: int = DEFAULT_MAX_CYCLES,
                     min_group: int = 2
                     ) -> Tuple[List[Outcome], Dict[str, int]]:
    """Run a wave of programs through the batched backend, folding
    structurally-identical programs into shared batches.

    Programs whose designs share a :func:`_wave_group_key` elaborate
    the same kernel, so the wave runs them as one
    :class:`~repro.rtg.RtgBatchExecutor` batch — each lane still
    compared word-for-word against its *own* golden run.  Batching is
    an optimization, never the failure oracle: any lane that does not
    cleanly pass inside a batch (mismatch, timeout, crash, or an
    unsupported design) is re-run serially through
    :func:`run_program` with the batched backend for exact
    classification.  Returns one :class:`Outcome` per program, in
    order, plus wave statistics.
    """
    from ..rtg.executor import RtgBatchExecutor
    from ..sim.batched import BatchUnsupported

    outcomes: List[Optional[Outcome]] = [None] * len(programs)
    designs = [None] * len(programs)
    goldens: List[Optional[Dict[str, object]]] = [None] * len(programs)
    groups: Dict[str, List[int]] = {}
    serial: List[int] = []
    stats = {"programs": len(programs), "batches": 0,
             "batched_programs": 0, "serial_programs": 0,
             "reruns": 0}

    for index, program in enumerate(programs):
        try:
            designs[index] = compile_function(
                program.source, program.arrays, dict(program.params),
                name=program.name, word_width=program.word_width,
                n_partitions=program.n_partitions,
            )
        except Exception as exc:  # noqa: BLE001 - classification boundary
            outcomes[index] = Outcome("compile-crash",
                                      detail=_crash_detail(exc),
                                      exc_type=type(exc).__name__)
            continue
        inputs = make_images(program, input_seed)
        golden = {name: image.copy() for name, image in inputs.items()}
        try:
            run_golden(program.func(), program.arrays, golden,
                       dict(program.params))
        except Exception as exc:  # noqa: BLE001 - classification boundary
            outcomes[index] = Outcome("golden-crash",
                                      detail=_crash_detail(exc),
                                      exc_type=type(exc).__name__)
            continue
        goldens[index] = golden
        key = _wave_group_key(designs[index])
        if key is None:
            serial.append(index)
        else:
            groups.setdefault(key, []).append(index)

    def rerun(index: int) -> Outcome:
        stats["reruns"] += 1
        return run_program(programs[index], backends=("batched",),
                           max_cycles=max_cycles, input_seed=input_seed)

    for key in sorted(groups):
        members = groups[key]
        if len(members) < min_group:
            serial.extend(members)
            continue
        design = designs[members[0]]
        contexts = [ReconfigurationContext.from_rtg(
            design.rtg,
            initial={name: image.copy()
                     for name, image
                     in make_images(programs[index], input_seed).items()})
            for index in members]
        stats["batches"] += 1
        stats["batched_programs"] += len(members)
        try:
            executor = RtgBatchExecutor(
                design.rtg, contexts,
                max_cycles_per_configuration=max_cycles)
            executor.run()
        except (BatchUnsupported, SimulationTimeout, Exception):  # noqa: B014
            # batch-level failure: exact classification is the serial
            # harness's job, one lane at a time
            for index in members:
                outcomes[index] = rerun(index)
            continue
        for slot, index in enumerate(members):
            program = programs[index]
            failed = False
            for name in program.arrays:
                if name == SPILL_MEMORY:
                    continue
                mismatches = compare_images(
                    goldens[index][name],
                    contexts[slot].memory(name), limit=4)
                if mismatches:
                    failed = True
                    break
            # a clean pass inside the batch is sound (the lane's own
            # memories equal its own golden); anything else gets the
            # serial harness's exact classification
            outcomes[index] = rerun(index) if failed else Outcome("pass")

    for index in serial:
        stats["serial_programs"] += 1
        outcomes[index] = run_program(programs[index],
                                      backends=("batched",),
                                      max_cycles=max_cycles,
                                      input_seed=input_seed)

    return [outcome or Outcome("pass") for outcome in outcomes], stats


# ----------------------------------------------------------------------
# Campaigns
# ----------------------------------------------------------------------
# Worker-side state for the fork-based pool: GeneratorConfig carries no
# closures, but shipping it once via a module global keeps the per-task
# payload to a single integer seed (same pattern as core.testsuite).
_WORKER_STATE: Optional[
    Tuple[GeneratorConfig, Tuple[str, ...], int, int, bool]] = None


def _worker_warmup(_index: int) -> None:
    """No-op task that forces worker processes to exist (and be timed)."""
    return None


def _run_one_seed(case_seed: int) -> FuzzCaseResult:
    config, backends, max_cycles, input_seed, collect = _WORKER_STATE
    collector = CoverageCollector() if collect else None
    with span("fuzz.seed", "fuzz", seed=case_seed) as seed_span:
        try:
            program = generate(case_seed, config)
            outcome = run_program(program, backends=backends,
                                  max_cycles=max_cycles,
                                  input_seed=input_seed,
                                  coverage=collector)
        except Exception as exc:  # noqa: BLE001 - harness bug, not a finding
            outcome = Outcome("harness-error",
                              detail=traceback.format_exc(),
                              exc_type=type(exc).__name__)
            program = None
        seed_span.set("outcome", outcome.kind)
    items = (tuple(collector.report.items())
             if collector is not None else None)
    return FuzzCaseResult(case_seed, outcome, seed_span.seconds,
                          program=program if outcome.failed else None,
                          coverage_items=items)


def run_campaign(iterations: int, *, seed: int = 0, jobs: int = 1,
                 config: Optional[GeneratorConfig] = None,
                 backends: Sequence[str] = DEFAULT_BACKENDS,
                 max_cycles: int = DEFAULT_MAX_CYCLES,
                 input_seed: int = 0,
                 time_budget: Optional[float] = None,
                 coverage: bool = False,
                 on_progress=None,
                 ledger=None) -> CampaignReport:
    """Run *iterations* differential tests; deterministic per *seed*.

    Case ``i`` always fuzzes generator seed ``seed + i`` regardless of
    ``jobs``, so any failure reproduces serially.  ``time_budget``
    (seconds) stops the campaign early once exceeded — used by the
    nightly CI job.  Failures are returned unminimized; the caller
    decides whether to reduce (see :func:`repro.fuzz.reduce_failure`).
    ``coverage=True`` records each program's coverage signature and
    reports the seeds that reached items no earlier seed did
    (``report.new_coverage_seeds``).  ``ledger`` (a
    :class:`repro.obs.Ledger` or a path) appends the campaign's
    classification tallies as one ``fuzz`` row — written by the parent
    after the pool drains, so workers never touch the database.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be >= 0, got {iterations}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    config = config or GeneratorConfig()
    report = CampaignReport(seed=seed, jobs=jobs)

    with span("fuzz.campaign", "fuzz", seed=seed, jobs=jobs,
              iterations=iterations) as campaign:
        global _WORKER_STATE
        _WORKER_STATE = (config, tuple(backends), max_cycles, input_seed,
                         coverage)
        parallel = (jobs > 1 and iterations > 1
                    and "fork" in multiprocessing.get_all_start_methods())
        try:
            if parallel:
                context = multiprocessing.get_context("fork")
                wave = max(jobs * 8, 16)
                # one pool serves every wave: the fork spin-up cost is paid
                # (and measured) exactly once, up front, instead of once
                # per wave; waves remain as the time-budget check cadence
                with ProcessPoolExecutor(max_workers=jobs,
                                         mp_context=context) as pool:
                    # detached: the workers fork inside this span and
                    # must not inherit it as their parent
                    spawn = start_span("fuzz.pool", "fuzz", jobs=jobs)
                    for _ in pool.map(_worker_warmup, range(jobs)):
                        pass
                    spawn.finish()
                    report.pool_startup_seconds = spawn.seconds
                    for base in range(0, iterations, wave):
                        report.pool_waves += 1
                        seeds = [seed + i for i in
                                 range(base, min(base + wave, iterations))]
                        for result in pool.map(_run_one_seed, seeds,
                                               chunksize=2):
                            _absorb(report, result, on_progress)
                        report.wall_seconds = campaign.seconds
                        if time_budget is not None \
                                and report.wall_seconds >= time_budget:
                            break
            else:
                for i in range(iterations):
                    _absorb(report, _run_one_seed(seed + i), on_progress)
                    report.wall_seconds = campaign.seconds
                    if time_budget is not None \
                            and report.wall_seconds >= time_budget:
                        break
        finally:
            _WORKER_STATE = None
    report.wall_seconds = campaign.seconds
    if ledger is not None:
        from ..obs.ledger import ledger_sink
        with ledger_sink(ledger) as sink:
            sink.record_fuzz(report)
    return report


def _absorb(report: CampaignReport, result: FuzzCaseResult,
            on_progress) -> None:
    report.iterations += 1
    kind = result.outcome.kind
    report.counts[kind] = report.counts.get(kind, 0) + 1
    if result.outcome.failed:
        report.failures.append(result)
    if result.coverage_items:
        fresh = [item for item in result.coverage_items
                 if item not in report.coverage_items]
        if fresh:
            report.coverage_items.update(fresh)
            report.new_coverage_seeds.append(result.seed)
    if on_progress is not None:
        on_progress(result)
