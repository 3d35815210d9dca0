"""Seeded, reproducible faultloads for a compiled design.

A *faultload* is a list of :class:`FaultDescriptor` entries — concrete,
replayable single faults.  :class:`FaultloadGenerator` enumerates the
target spaces of one design (register output nets, all named nets,
memory resources, FSM states) and draws descriptors with a seeded RNG,
so the same ``(design, seed, n)`` always yields the same campaign.
Descriptors serialise to JSON (:func:`save_faultload` /
:func:`load_faultload`) so a hang reproducer from CI can be replayed
locally with ``repro inject --replay``.

Four fault kinds:

``stuck``
    A named signal's bit is stuck at 0 or 1 for the whole run
    (permanent fault: a shorted or broken line in the fabric).
``reg_flip``
    A transient upset: one bit of a register output is XOR-flipped
    once, while the FSM sits in a pinned state within a cycle window
    (an SEU striking a flip-flop).
``mem_flip``
    One bit of one memory word is flipped before the run starts (an
    SEU striking a BRAM cell between configuration and execution).
``mutation``
    A compiler bug: one :class:`repro.core.faults.Fault` applied to an
    XML round-tripped copy of the design before elaboration.
    ``target`` is the mutated component or state; ``detail`` is the
    mutation kind, then ``": "`` and its detail.  Drawn only on request.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..compiler.partitioning import SPILL_MEMORY
from ..compiler.pipeline import Design
from ..core.faults import (MUTATION_KINDS, Fault, enumerate_faults,
                           single_configuration)

__all__ = ["FaultDescriptor", "FaultloadGenerator", "save_faultload",
           "load_faultload", "output_adjacent_nets"]

DEFAULT_KINDS = ("stuck", "reg_flip", "mem_flip")
FAULT_KINDS = DEFAULT_KINDS + ("mutation",)

#: JSON type of every descriptor field (``bool`` is never an ``int``)
_FIELD_TYPES = {"fault_id": str, "kind": str, "target": str, "bit": int,
                "stuck_value": int, "word": int, "state": (str, type(None)),
                "cycle_lo": int, "cycle_hi": int, "detail": str}


@dataclass(frozen=True)
class FaultDescriptor:
    """One concrete, replayable fault."""

    fault_id: str
    kind: str  # stuck | reg_flip | mem_flip | mutation
    #: signal (net) name, memory name, or mutated component/state
    target: str
    bit: int = 0
    #: stuck-at value (``stuck`` only)
    stuck_value: int = 0
    #: word address (``mem_flip`` only)
    word: int = 0
    #: pinned FSM state (``reg_flip`` only)
    state: Optional[str] = None
    #: inclusive 1-based cycle window (``reg_flip`` only)
    cycle_lo: int = 1
    cycle_hi: int = 1
    detail: str = ""

    def __post_init__(self) -> None:
        for name, types in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"descriptor field {name!r} has type "
                                 f"{type(value).__name__}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} "
                             f"(known: {FAULT_KINDS})")
        if not self.target:
            raise ValueError("descriptor has an empty target")
        if self.kind == "mutation" \
                and self.mutation.kind not in MUTATION_KINDS:
            raise ValueError(f"unknown mutation kind {self.mutation.kind!r}")
        if self.bit < 0:
            raise ValueError(f"bit must be >= 0, got {self.bit}")
        if self.stuck_value not in (0, 1):
            raise ValueError(f"stuck_value must be 0 or 1, "
                             f"got {self.stuck_value}")

    @classmethod
    def from_mutation(cls, fault: Fault,
                      fault_id: str) -> "FaultDescriptor":
        """The ``mutation`` descriptor carrying seed fault *fault*."""
        detail = f"{fault.kind}: {fault.detail}" if fault.detail \
            else fault.kind
        return cls(fault_id=fault_id, kind="mutation", target=fault.target,
                   detail=detail)

    @property
    def mutation(self) -> Fault:
        """The seed fault a ``mutation`` descriptor carries."""
        kind, _, detail = self.detail.partition(": ")
        return Fault(kind, self.target, detail)

    def describe(self) -> str:
        if self.kind == "mutation":
            return f"{self.fault_id}: mutation {self.mutation.describe()}"
        if self.kind == "stuck":
            return (f"{self.fault_id}: stuck-at-{self.stuck_value} "
                    f"{self.target}[{self.bit}]")
        if self.kind == "reg_flip":
            return (f"{self.fault_id}: flip {self.target}[{self.bit}] "
                    f"in state {self.state} "
                    f"cycles [{self.cycle_lo}, {self.cycle_hi}]")
        return (f"{self.fault_id}: flip {self.target}"
                f"[{self.word}] bit {self.bit}")

    def to_dict(self) -> Dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultDescriptor":
        """Validate and build; any malformed input is a ValueError."""
        if not isinstance(data, dict) \
                or not {"fault_id", "kind", "target"} <= set(data):
            raise ValueError(f"not a fault descriptor: {data!r:.80}")
        extra = set(data) - set(_FIELD_TYPES)
        if extra:
            raise ValueError(f"unknown descriptor field(s) {sorted(extra)}")
        return cls(**data)


def save_faultload(faults: Sequence[FaultDescriptor],
                   path: Union[str, Path]) -> Path:
    """Write a faultload as a JSON file (one replayable document)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {"format": "repro-faultload-v1",
                "faults": [fault.to_dict() for fault in faults]}
    path.write_text(json.dumps(document, indent=2) + "\n",
                    encoding="utf-8")
    return path


def load_faultload(path: Union[str, Path]) -> List[FaultDescriptor]:
    """Read a faultload written by :func:`save_faultload`.

    Also accepts a bare descriptor object or a bare list, so a single
    hang reproducer pasted from a CI artifact replays directly.  Any
    malformed document raises :class:`ValueError`.
    """
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = data
    if isinstance(data, dict):
        entries = data["faults"] if "faults" in data else [data]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: not a faultload document")
    return [FaultDescriptor.from_dict(entry) for entry in entries]


# ----------------------------------------------------------------------
# Target enumeration
# ----------------------------------------------------------------------
def output_adjacent_nets(design: Design) -> List[str]:
    """Nets wired into the data port of an output-memory write port.

    A stuck-at on one of these corrupts output words directly, so it is
    the canonical SDC-producing target (used by the CI smoke gate).
    """
    config = single_configuration(design)
    datapath = config.datapath
    names: List[str] = []
    for net in datapath.nets.values():
        for sink in net.sinks:
            comp = datapath.components.get(sink.component)
            if comp is None or comp.type != "sram":
                continue
            memory = datapath.memories.get(comp.param("memory", ""))
            if memory is not None and memory.role == "output" \
                    and sink.port == "din":
                names.append(net.name)
                break
    return names


@dataclass
class _TargetSpace:
    """Everything the generator can aim at, in deterministic order."""

    nets: List[tuple] = field(default_factory=list)  # (name, width)
    registers: List[tuple] = field(default_factory=list)  # (name, width)
    memories: List[tuple] = field(default_factory=list)  # (name, w, depth)
    states: List[str] = field(default_factory=list)
    mutations: List[Fault] = field(default_factory=list)


class FaultloadGenerator:
    """Draw reproducible faultloads from one compiled design.

    ``max_cycle`` bounds the transient-upset windows; pass the design's
    fault-free cycle count so upsets land while the design is live.
    """

    def __init__(self, design: Design, *, seed: int = 0,
                 max_cycle: int = 1000) -> None:
        config = single_configuration(design)
        self.design = design
        self.seed = seed
        self.max_cycle = max(int(max_cycle), 1)
        space = _TargetSpace()
        datapath = config.datapath
        for net in datapath.nets.values():
            space.nets.append((net.name, net.width))
            source = datapath.components.get(net.source.component)
            if source is not None and source.type == "reg":
                space.registers.append((net.name, net.width))
        for name, spec in sorted(design.arrays.items()):
            if name != SPILL_MEMORY:
                space.memories.append((name, spec.width, spec.depth))
        space.states = list(config.fsm.states)
        space.mutations = enumerate_faults(datapath, config.fsm)
        self.space = space

    # ------------------------------------------------------------------
    def generate(self, n: int, *,
                 kinds: Sequence[str] = DEFAULT_KINDS
                 ) -> List[FaultDescriptor]:
        """*n* descriptors, deterministic for (design, seed, n, kinds)."""
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        draw = {"stuck": self._draw_stuck,
                "reg_flip": self._draw_reg_flip,
                "mem_flip": self._draw_mem_flip,
                "mutation": self._draw_mutation}
        space = self.space
        targets = {"stuck": space.nets, "mem_flip": space.memories,
                   "reg_flip": space.registers and space.states,
                   "mutation": space.mutations}
        usable = [kind for kind in kinds if targets[kind]]
        if not usable:
            raise ValueError(
                f"design {self.design.name!r} has no targets for any of "
                f"{list(kinds)}")
        rng = random.Random(self.seed)
        faults: List[FaultDescriptor] = []
        for index in range(n):
            kind = usable[index % len(usable)]
            faults.append(draw[kind](rng, f"f{index:05d}"))
        return faults

    def _draw_stuck(self, rng: random.Random,
                    fault_id: str) -> FaultDescriptor:
        name, width = rng.choice(self.space.nets)
        return FaultDescriptor(
            fault_id=fault_id, kind="stuck", target=name,
            bit=rng.randrange(width), stuck_value=rng.randrange(2))

    def _draw_reg_flip(self, rng: random.Random,
                       fault_id: str) -> FaultDescriptor:
        name, width = rng.choice(self.space.registers)
        state = rng.choice(self.space.states)
        lo = rng.randrange(1, self.max_cycle + 1)
        hi = min(lo + rng.randrange(1, 65), self.max_cycle)
        return FaultDescriptor(
            fault_id=fault_id, kind="reg_flip", target=name,
            bit=rng.randrange(width), state=state,
            cycle_lo=lo, cycle_hi=max(lo, hi))

    def _draw_mem_flip(self, rng: random.Random,
                       fault_id: str) -> FaultDescriptor:
        name, width, depth = rng.choice(self.space.memories)
        return FaultDescriptor(
            fault_id=fault_id, kind="mem_flip", target=name,
            bit=rng.randrange(width), word=rng.randrange(depth))

    def _draw_mutation(self, rng: random.Random,
                       fault_id: str) -> FaultDescriptor:
        return FaultDescriptor.from_mutation(
            rng.choice(self.space.mutations), fault_id)
