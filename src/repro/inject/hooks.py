"""How a fault descriptor takes effect inside a simulator.

Two mechanisms, chosen per design at attach time:

* **Kernel spec** — on a :class:`~repro.sim.compiled.CompiledSimulator`
  (plain or fused) the fault is *compiled into* the generated
  kernel, exactly like coverage instrumentation: a
  :class:`KernelFaultSpec` on the simulator adds entries to the kernel
  IR — a force after every write of the target net (stuck-at) or a
  windowed one-shot XOR on the pinned state's edge (transient flip).
  The fast path keeps running at full speed, and a fused kernel
  keeps its fused traces (all but one containing a flip's pinned
  state, whose cycle window needs the per-state path).
* **Event hooks** — on the plain event kernel (or when the compiled
  subset rejects the target, e.g. a Moore control line) the stuck-at
  becomes a signal watcher that re-forces the value before the fanout
  is queued, and the transient flip becomes a post-settle cycle hook
  (see ``Simulator._cycle_hooks``).  Both deliberately block the
  compiled fast path, so the hooks always take effect.

Either way the observable semantics are identical for register-output
targets; :func:`attach_fault` returns a :class:`FaultHandle` whose
``mechanism`` records which path was taken.

``mem_flip`` and ``mutation`` descriptors never reach this module —
they change the memory images or the design before the run (see
:func:`repro.inject.campaign.run_injection`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..sim.compiled import CompiledSimulator
from ..sim.signal import Signal
from .faultload import FaultDescriptor

__all__ = ["KernelFaultSpec", "FaultHandle", "kernel_spec", "attach_fault"]


@dataclass(eq=False)
class KernelFaultSpec:
    """The codegen-facing form of a signal fault (see sim.compiled).

    ``kind`` is ``"stuck"`` or ``"flip"``; the masks are pre-widened to
    the target signal, and ``latch`` is the one-shot fired flag shared
    with the generated code (a fresh list per spec, so replays rearm).
    """

    kind: str
    signal: str
    state: Optional[str] = None
    and_mask: int = -1
    or_mask: int = 0
    xor_mask: int = 0
    lo: int = 0
    hi: int = 0
    latch: List[int] = field(default_factory=lambda: [0])


def kernel_spec(fault: FaultDescriptor, signal: Signal) -> KernelFaultSpec:
    """Build the kernel spec for a signal fault on *signal*."""
    if fault.kind == "stuck":
        if fault.stuck_value:
            return KernelFaultSpec("stuck", fault.target,
                                   and_mask=signal.mask,
                                   or_mask=(1 << fault.bit) & signal.mask)
        return KernelFaultSpec("stuck", fault.target,
                               and_mask=signal.mask & ~(1 << fault.bit))
    if fault.kind == "reg_flip":
        return KernelFaultSpec("flip", fault.target, state=fault.state,
                               xor_mask=(1 << fault.bit) & signal.mask,
                               lo=fault.cycle_lo, hi=fault.cycle_hi)
    raise ValueError(f"{fault.kind!r} faults are not signal faults")


@dataclass(eq=False)
class FaultHandle:
    """An attached fault; ``detach()`` restores the clean simulator."""

    sim: object
    mechanism: str  # "kernel" | "watcher" | "cycle-hook"
    watcher: Optional[tuple] = None  # (signal, callback)
    hook: Optional[Callable] = None
    spec: Optional[KernelFaultSpec] = None

    def detach(self) -> None:
        if self.spec is not None:
            self.sim.set_fault_spec(None)
            self.spec = None
        if self.watcher is not None:
            signal, callback = self.watcher
            signal.unwatch(callback)
            self.watcher = None
        if self.hook is not None:
            try:
                self.sim._cycle_hooks.remove(self.hook)
            except ValueError:
                pass
            self.hook = None

    def __enter__(self) -> "FaultHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.detach()


def attach_fault(design, fault: FaultDescriptor) -> FaultHandle:
    """Arm *fault* on an elaborated :class:`SimDesign`.

    Prefers the compiled kernel spec; falls back to event-kernel hooks
    when the simulator is not compiled or the target is outside the
    compiled subset.  Raises :class:`ValueError` for descriptors that
    cannot apply to this design (unknown signal, bit out of range).
    """
    if fault.kind in ("mem_flip", "mutation"):
        raise ValueError(f"{fault.kind} faults take effect before the "
                         f"run (see campaign.run_injection)")
    sim = design.sim
    signal = sim._signals.get(fault.target)
    if signal is None:
        raise ValueError(
            f"design {design.datapath.name!r} has no signal "
            f"{fault.target!r}")
    if fault.bit >= signal.width:
        raise ValueError(
            f"bit {fault.bit} out of range for {fault.target!r} "
            f"(width {signal.width})")
    if fault.kind == "reg_flip" and fault.state is not None \
            and fault.state not in design.fsm.states:
        raise ValueError(
            f"design {design.datapath.name!r} has no FSM state "
            f"{fault.state!r}")

    if isinstance(sim, CompiledSimulator):
        spec = kernel_spec(fault, signal)
        sim.set_fault_spec(spec)
        if sim._ensure_program() is not None:
            return FaultHandle(sim, mechanism="kernel", spec=spec)
        # outside the compiled subset: clear the spec (which also
        # clears the fallback reason) and fault the event kernel the
        # design will now run on
        sim.set_fault_spec(None)

    if fault.kind == "stuck":
        if fault.stuck_value:
            and_mask, or_mask = signal.mask, (1 << fault.bit) & signal.mask
        else:
            and_mask, or_mask = signal.mask & ~(1 << fault.bit), 0

        def force(sig, old, new, _a=and_mask, _o=or_mask):
            # runs inside Simulator._apply before the fanout is queued,
            # so every consumer reads the forced value
            sig.value = (new & _a) | _o

        signal.watch(force)
        forced = (signal.value & and_mask) | or_mask
        if forced != signal.value:
            signal.value = forced
            sim._worklist.extend(signal.sinks)
        return FaultHandle(sim, mechanism="watcher",
                           watcher=(signal, force))

    # transient flip: post-settle cycle hook.  The pinned state is
    # matched against the *pre-edge* state of each cycle (what the
    # compiled kernel's per-state edge block specializes on), which at
    # hook time — after the edge — is the state recorded one call ago.
    controller = design.controller
    xor_mask = (1 << fault.bit) & signal.mask
    box = {"cycle": 0, "fired": False, "prev": controller.state}

    def upset(sim_, _sig=signal, _box=box, _state=fault.state,
              _lo=fault.cycle_lo, _hi=fault.cycle_hi, _x=xor_mask):
        _box["cycle"] += 1
        pre = _box["prev"]
        _box["prev"] = controller.state
        if _box["fired"] or (_state is not None and pre != _state):
            return
        if not (_lo <= _box["cycle"] <= _hi):
            return
        _box["fired"] = True
        _sig.value = (_sig.value ^ _x) & _sig.mask
        sim_._worklist.extend(_sig.sinks)

    sim._cycle_hooks.append(upset)
    return FaultHandle(sim, mechanism="cycle-hook", hook=upset)
