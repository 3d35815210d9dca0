"""The automated build-and-test flow (the paper's ANT build).

A :class:`Flow` runs named stages over a shared context dict, timing each
one.  :func:`standard_flow` assembles the canonical Figure 1 pipeline:

1. ``compile``      — algorithm → Design (datapath/FSM/RTG IR)
2. ``emit-xml``     — Design → the three XML dialects on disk
3. ``emit-dot``     — XML IR → Graphviz files ("to dotty")
4. ``emit-python``  — FSM/RTG → generated Python sources ("to java")
5. ``stimulus``     — memory/stimulus files
6. ``golden``       — software execution over the stimulus
7. ``simulate``     — reload XML from disk, elaborate, run to done
8. ``compare``      — word-level comparison of memory contents

Stage 7 deliberately reloads the XML bundle instead of reusing the
in-memory Design: the flow then exercises the same path a compiler user
does (compiler output files in, verdict out).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import compile_function
from ..compiler.spec import MemorySpec
from ..hdl.xmlio.rtg_xml import load_rtg_bundle
from ..obs.coverage import CoverageCollector
from ..obs.trace import span
from ..rtg.context import ReconfigurationContext
from ..rtg.executor import RtgExecutor
from ..translate.engine import translate
from ..translate.to_python import fsm_to_python, rtg_to_python
from ..util.files import MemoryImage, compare_images
from .stimulus import write_stimulus_files
from .verification import MemoryCheck, golden_result, prepare_images

__all__ = ["FlowStage", "StageResult", "FlowReport", "Flow",
           "standard_flow"]


@dataclass
class FlowStage:
    """One named step of the flow."""

    name: str
    action: Callable[[Dict[str, Any]], Any]


@dataclass
class StageResult:
    name: str
    seconds: float
    detail: str = ""


@dataclass
class FlowReport:
    stages: List[StageResult] = field(default_factory=list)
    context: Dict[str, Any] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def stage(self, name: str) -> StageResult:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(f"no stage named {name!r}")

    def summary(self) -> str:
        lines = ["stage            seconds  detail",
                 "---------------  -------  ------"]
        for stage in self.stages:
            lines.append(f"{stage.name:<15}  {stage.seconds:7.3f}  "
                         f"{stage.detail}")
        lines.append(f"{'total':<15}  {self.total_seconds:7.3f}")
        return "\n".join(lines)


class Flow:
    """Run stages in order over a shared context, timing each."""

    def __init__(self, stages: Sequence[FlowStage]) -> None:
        self.stages = list(stages)

    def run(self, context: Optional[Dict[str, Any]] = None) -> FlowReport:
        report = FlowReport(context=dict(context or {}))
        for stage in self.stages:
            with span(f"flow.{stage.name}", "flow") as timing:
                detail = stage.action(report.context)
                if detail is not None:
                    timing.set("detail", str(detail))
            report.stages.append(StageResult(
                stage.name, timing.seconds,
                detail="" if detail is None else str(detail),
            ))
        return report


def standard_flow(func: Callable,
                  arrays: Mapping[str, MemorySpec],
                  params: Optional[Mapping[str, int]] = None,
                  *,
                  workdir: Union[str, Path],
                  inputs: Optional[Mapping[str, MemoryImage]] = None,
                  n_partitions: int = 1,
                  word_width: int = 32,
                  fsm_mode: str = "generated",
                  backend: str = "event",
                  max_cycles: int = 50_000_000,
                  coverage: bool = False) -> Flow:
    """The canonical end-to-end flow over one algorithm (see module doc).

    ``backend`` selects the simulation kernel used by the simulate stage
    (see :data:`repro.sim.SIMULATOR_BACKENDS`).  ``coverage=True`` makes
    the simulate stage collect functional coverage into
    ``ctx["coverage"]`` (a :class:`repro.obs.CoverageReport`).
    """
    workdir = Path(workdir)

    def stage_compile(ctx: Dict[str, Any]) -> str:
        design = compile_function(func, arrays, params,
                                  word_width=word_width,
                                  n_partitions=n_partitions)
        ctx["design"] = design
        return f"{len(design.configurations)} configuration(s)"

    def stage_emit_xml(ctx: Dict[str, Any]) -> str:
        written = ctx["design"].save(workdir)
        ctx["xml_files"] = written
        ctx["rtg_path"] = written[-1]
        return f"{len(written)} file(s)"

    def stage_emit_dot(ctx: Dict[str, Any]) -> str:
        design = ctx["design"]
        dot_files: List[Path] = []
        for config in design.configurations:
            for artifact, suffix in ((config.datapath, "datapath"),
                                     (config.fsm, "fsm")):
                path = workdir / f"{design.name}_{config.name}_{suffix}.dot"
                path.write_text(translate(artifact, "dot"))
                dot_files.append(path)
        path = workdir / f"{design.name}_rtg.dot"
        path.write_text(translate(design.rtg, "dot"))
        dot_files.append(path)
        ctx["dot_files"] = dot_files
        return f"{len(dot_files)} file(s)"

    def stage_emit_python(ctx: Dict[str, Any]) -> str:
        design = ctx["design"]
        generated: List[Path] = []
        for config in design.configurations:
            path = workdir / f"{design.name}_{config.name}_fsm.py"
            path.write_text(fsm_to_python(config.fsm))
            generated.append(path)
        path = workdir / f"{design.name}_rtg.py"
        path.write_text(rtg_to_python(design.rtg))
        generated.append(path)
        ctx["generated_files"] = generated
        return f"{len(generated)} file(s)"

    def stage_stimulus(ctx: Dict[str, Any]) -> str:
        design = ctx["design"]
        images = prepare_images(design, inputs)
        ctx["images"] = images
        stimulus = {name: image for name, image in images.items()
                    if name != SPILL_MEMORY}
        write_stimulus_files(workdir, stimulus)
        return f"{len(stimulus)} memory file(s)"

    def stage_golden(ctx: Dict[str, Any]) -> str:
        golden = golden_result(ctx["design"], func, ctx["images"])
        ctx["golden_images"] = golden
        return f"{len(golden)} memory(ies)"

    def stage_simulate(ctx: Dict[str, Any]) -> str:
        rtg = load_rtg_bundle(ctx["rtg_path"])
        context = ReconfigurationContext.from_rtg(
            rtg, initial=ctx["images"])
        collector = CoverageCollector() if coverage else None
        executor = RtgExecutor(rtg, context, fsm_mode=fsm_mode,
                               backend=backend,
                               max_cycles_per_configuration=max_cycles,
                               coverage=collector)
        result = executor.run()
        ctx["rtg_run"] = result
        ctx["hw_images"] = context.memories
        if collector is not None:
            ctx["coverage"] = collector.report
        return (f"{result.total_cycles} cycles, "
                f"{result.reconfigurations} reconfiguration(s)")

    def stage_compare(ctx: Dict[str, Any]) -> str:
        design = ctx["design"]
        checks: List[MemoryCheck] = []
        for name, spec in design.arrays.items():
            if name == SPILL_MEMORY:
                continue
            mismatches = compare_images(ctx["golden_images"][name],
                                        ctx["hw_images"][name], limit=32)
            checks.append(MemoryCheck(name, spec.role, spec.depth,
                                      mismatches))
        ctx["checks"] = checks
        ctx["passed"] = all(check.passed for check in checks)
        failing = [check.memory for check in checks if not check.passed]
        return "PASS" if not failing else f"FAIL: {failing}"

    return Flow([
        FlowStage("compile", stage_compile),
        FlowStage("emit-xml", stage_emit_xml),
        FlowStage("emit-dot", stage_emit_dot),
        FlowStage("emit-python", stage_emit_python),
        FlowStage("stimulus", stage_stimulus),
        FlowStage("golden", stage_golden),
        FlowStage("simulate", stage_simulate),
        FlowStage("compare", stage_compare),
    ])
