"""Fault injection: qualify the test infrastructure itself.

The infrastructure exists to catch regressions a compiler change
introduces into generated designs.  This module asks the meta-question —
*would it?* — by injecting representative compiler-bug-shaped faults
into a compiled design and checking that golden comparison flags each
one:

* ``const_value`` — a constant generator emits a wrong value (typical
  off-by-one / wrong-literal codegen bug);
* ``cmp_op`` — a comparator uses the adjacent operator (``lt``/``le``,
  ``gt``/``ge``, ``eq``/``ne`` — the classic loop-bound bug);
* ``mux_swap`` — two mux inputs are wired in the wrong order (binding
  bug);
* ``branch_swap`` — a conditional FSM transition's targets are exchanged
  (control-generation bug);
* ``stuck_control`` — one state forgets one control assignment
  (enable/select dropped by FSM generation);
* ``wrong_state_order`` — a state's default transition goes one state
  too far (skipped control step).

Faults are applied to *copies* made through the XML dialects (write →
read), so the campaign also exercises serialisation.  Campaigns run on
the one fault-campaign engine, :func:`repro.inject.run_campaign`, as
``mutation`` descriptors; the verdict per fault is ``detected`` (memory
mismatch: ``sdc``), ``crashed`` (``hang`` or ``crash`` — also a
detection) or ``survived`` (``masked``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from ..compiler.pipeline import Configuration, Design
from ..hdl.model.datapath import Datapath
from ..hdl.model.fsm import DONE_OUTPUT, Fsm
from ..hdl.model.rtg import Rtg
from ..hdl.xmlio.datapath_xml import read_datapath, write_datapath
from ..hdl.xmlio.fsm_xml import read_fsm, write_fsm

__all__ = ["Fault", "FaultVerdict", "CampaignResult", "MUTATION_KINDS",
           "enumerate_faults", "inject_fault", "run_campaign"]

MUTATION_KINDS = ("const_value", "cmp_op", "mux_swap", "branch_swap",
                  "stuck_control", "wrong_state_order")

_CMP_NEIGHBOUR = {"lt": "le", "le": "lt", "gt": "ge", "ge": "gt",
                  "eq": "ne", "ne": "eq"}


@dataclass(frozen=True)
class Fault:
    """One concrete mutation of a design."""

    kind: str
    target: str
    detail: str = ""

    def describe(self) -> str:
        text = f"{self.kind} @ {self.target}"
        return f"{text} ({self.detail})" if self.detail else text


@dataclass
class FaultVerdict:
    fault: Fault
    verdict: str  # "detected" | "crashed" | "survived"
    note: str = ""

    @property
    def killed(self) -> bool:
        return self.verdict in ("detected", "crashed")


@dataclass
class CampaignResult:
    verdicts: List[FaultVerdict] = field(default_factory=list)

    @property
    def total(self) -> int:
        return len(self.verdicts)

    @property
    def killed(self) -> int:
        return sum(1 for v in self.verdicts if v.killed)

    @property
    def survivors(self) -> List[FaultVerdict]:
        return [v for v in self.verdicts if not v.killed]

    @property
    def kill_rate(self) -> float:
        return self.killed / self.total if self.total else 1.0

    def summary(self) -> str:
        lines = [
            f"fault campaign: {self.killed}/{self.total} killed "
            f"({self.kill_rate:.0%})"
        ]
        for verdict in self.verdicts:
            lines.append(f"  [{verdict.verdict:^8}] "
                         f"{verdict.fault.describe()}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Fault enumeration
# ----------------------------------------------------------------------
def enumerate_faults(datapath: Datapath, fsm: Fsm,
                     *, limit_per_kind: Optional[int] = None) -> List[Fault]:
    """All applicable single faults for one configuration."""
    faults: List[Fault] = []

    consts = [decl for decl in datapath.components.values()
              if decl.type == "const"]
    for decl in consts:
        faults.append(Fault("const_value", decl.name,
                            f"value {decl.param('value')} ^ 1"))

    for decl in datapath.components.values():
        if decl.type in _CMP_NEIGHBOUR:
            faults.append(Fault("cmp_op", decl.name,
                                f"{decl.type} -> "
                                f"{_CMP_NEIGHBOUR[decl.type]}"))

    for decl in datapath.components.values():
        if decl.type == "mux":
            inputs = int(decl.param("inputs", "0"))
            if inputs >= 2:
                faults.append(Fault("mux_swap", decl.name, "in0 <-> in1"))

    for state in fsm.states.values():
        conditional = [t for t in state.transitions if not t.unconditional]
        if conditional and len(state.transitions) >= 2:
            faults.append(Fault("branch_swap", state.name,
                                "first guard's target <-> default"))

    for state in fsm.states.values():
        for output in state.assigns:
            if output == DONE_OUTPUT:
                continue
            faults.append(Fault("stuck_control", state.name, output))

    state_names = list(fsm.states)
    for index, state in enumerate(fsm.states.values()):
        default = next((t for t in state.transitions if t.unconditional),
                       None)
        if default is None:
            continue
        target_index = state_names.index(default.target)
        if target_index + 1 < len(state_names):
            faults.append(Fault("wrong_state_order", state.name,
                                f"default {default.target} -> "
                                f"{state_names[target_index + 1]}"))

    if limit_per_kind is not None:
        by_kind: Dict[str, List[Fault]] = {}
        for fault in faults:
            by_kind.setdefault(fault.kind, []).append(fault)
        faults = [fault for kind_faults in by_kind.values()
                  for fault in kind_faults[:limit_per_kind]]
    return faults


# ----------------------------------------------------------------------
# Fault application (on XML-roundtripped copies)
# ----------------------------------------------------------------------
def _apply(fault: Fault, datapath: Datapath, fsm: Fsm) -> None:
    if fault.kind == "const_value":
        decl = datapath.components[fault.target]
        decl.params["value"] = str(int(decl.params["value"], 0) ^ 1)
    elif fault.kind == "cmp_op":
        decl = datapath.components[fault.target]
        decl.type = _CMP_NEIGHBOUR[decl.type]
    elif fault.kind == "mux_swap":
        lowered = 0
        for net in datapath.nets.values():
            for position, sink in enumerate(net.sinks):
                if sink.component == fault.target and \
                        sink.port in ("in0", "in1"):
                    other = "in1" if sink.port == "in0" else "in0"
                    net.sinks[position] = type(sink)(sink.component, other)
                    lowered += 1
        if lowered == 0:
            raise ValueError(f"mux {fault.target!r} has no in0/in1 sinks")
    elif fault.kind == "branch_swap":
        state = fsm.states[fault.target]
        first = state.transitions[0]
        default = state.transitions[-1]
        first.target, default.target = default.target, first.target
    elif fault.kind == "stuck_control":
        state = fsm.states[fault.target]
        del state.assigns[fault.detail]
    elif fault.kind == "wrong_state_order":
        state = fsm.states[fault.target]
        default = next(t for t in state.transitions if t.unconditional)
        default.target = fault.detail.split(" -> ")[1]
    else:
        raise ValueError(f"unknown fault kind {fault.kind!r}")


def single_configuration(design: Design) -> Configuration:
    """The one configuration of a design fault injection can target."""
    if design.multi_configuration:
        raise ValueError("fault injection supports single-configuration "
                         "designs")
    return design.configurations[0]


def inject_fault(design: Design, fault: Fault) -> Design:
    """A copy of *design* with *fault* applied (single-configuration)."""
    config = single_configuration(design)
    datapath = read_datapath(write_datapath(config.datapath))
    fsm = read_fsm(write_fsm(config.fsm))
    _apply(fault, datapath, fsm)

    rtg = Rtg(design.rtg.name)
    ref = design.rtg.configurations[config.name]
    rtg.add_configuration(config.name, datapath_file=ref.datapath_file,
                          fsm_file=ref.fsm_file, datapath=datapath,
                          fsm=fsm, final=True)
    for decl in design.rtg.memories.values():
        rtg.add_memory(decl.name, decl.width, decl.depth, role=decl.role)
    mutated = Configuration(config.name, datapath, fsm, config.cfg,
                            config.schedule, config.binding)
    return Design(design.name, design.word_width, design.arrays,
                  design.params, [mutated], rtg, design.function,
                  design.source)


# ----------------------------------------------------------------------
# Campaign
# ----------------------------------------------------------------------
_SEED_VERDICT = {"sdc": "detected", "masked": "survived",
                 "hang": "crashed", "crash": "crashed"}


def run_campaign(design: Design, func: Callable,
                 inputs: Optional[Mapping] = None,
                 *,
                 faults: Optional[List[Fault]] = None,
                 limit_per_kind: Optional[int] = None,
                 max_cycles: int = 1_000_000,
                 seed: Optional[int] = None,
                 sample: Optional[int] = None) -> CampaignResult:
    """Inject each fault and record whether verification catches it.

    The faults run as ``mutation`` descriptors through
    :func:`repro.inject.run_campaign` on the event kernel, serially.
    The unmutated design must verify cleanly first (a failing baseline
    would make every verdict meaningless); its cycle count sets the
    hang budget, which *max_cycles* caps.
    """
    from ..inject import FaultDescriptor
    from ..inject import run_campaign as inject_campaign

    config = single_configuration(design)
    if faults is None:
        faults = enumerate_faults(config.datapath, config.fsm,
                                  limit_per_kind=limit_per_kind)
    if sample is not None and sample < len(faults):
        rng = random.Random(seed if seed is not None else 2005)
        faults = rng.sample(faults, sample)

    descriptors = [FaultDescriptor.from_mutation(fault, f"m{index:05d}")
                   for index, fault in enumerate(faults)]
    report = inject_campaign(design, func, descriptors, inputs,
                             backend="event", max_cycles=max_cycles)
    return CampaignResult([
        FaultVerdict(fault, _SEED_VERDICT[result.verdict], note=result.note)
        for fault, result in zip(faults, report.results)])
