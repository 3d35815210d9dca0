"""The compiled (levelized, specialized) simulation backend.

Instead of dispatching events through a worklist, this backend turns an
elaborated design into one generated Python function per elaboration —
the approach of compiled-code simulators such as Verilator, transplanted
to the paper's language-level setting:

* the combinational network is **levelized** once
  (:mod:`repro.sim.levelize`), so a settle wave is straight-line code
  with producers ahead of consumers — no worklist, no dict dispatch;
* the generated code is **specialized per FSM state**: control lines are
  Moore outputs, i.e. compile-time constants within a state, so muxes
  with constant selects collapse to aliases, disabled registers and
  write ports vanish, and dead code elimination keeps only the cone
  that the state's enabled sinks and the status lines actually read;
* signal values live in Python **locals** inside the generated loop
  (the cheapest storage CPython offers), synced with the
  :class:`~repro.sim.signal.Signal` objects at entry and exit;
* each state is lowered **once**, to :class:`_StateIR`, and one
  renderer (:func:`_render_segments`) emits both the plain per-state
  tree and, with ``fuse=True``, the fused traces of
  :mod:`repro.sim.trace` from it.

One class serves three backend names (:mod:`repro.sim.backends`):
``compiled`` is ``fuse=False``; ``traced`` and ``batched`` are both
``fuse=True`` and share one kernel.

The backend is *conservative*: any construct outside the supported
subset — a foreign signal watcher (probe, VCD), a start/done handshake,
multiple clock domains, an operator type without a registered emitter —
falls back to the inherited event-driven kernel, so
:class:`CompiledSimulator` is always safe to select.  The fallback
reason is recorded on the simulator for inspection.

Semantics match the event kernel exactly: per cycle the sequential
elements sample pre-edge values (two-phase), SRAM writes are strict,
the controller samples pre-edge statuses, and the post-edge
combinational wave settles before the next cycle.  On leaving the fast
path every signal is written back and a full event-driven settle runs,
so external observers cannot distinguish the kernels.  Aggregate
:class:`~repro.sim.kernel.SimulationStats` counters are maintained from
per-state static work counts times visit counts (per-wave accounting
rather than per-event, as the counters' consumers expect).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from .clock import ClockDomain
from .component import Sequential
from .errors import (CombinationalLoopError, SimulationError,
                     SimulationTimeout)
from .kernel import Simulator
from .levelize import levelize
from .signal import Signal

__all__ = ["CompiledSimulator"]


class _Unsupported(Exception):
    """The design is outside the compiled subset; fall back."""


#: bump whenever generated-code semantics change; part of the
#: persistent kernel-cache key so stale kernels can never be loaded
_CODEGEN_VERSION = 5


# ----------------------------------------------------------------------
# Transition classification
# ----------------------------------------------------------------------
class _ProbeEnv(dict):
    """An env that records whether a transition function reads it."""

    def __init__(self) -> None:
        super().__init__()
        self.touched = False

    def __getitem__(self, key):
        self.touched = True
        return 0

    def __missing__(self, key):
        self.touched = True
        return 0

    def get(self, key, default=None):
        self.touched = True
        return 0

    def __contains__(self, key) -> bool:
        self.touched = True
        return True


def _classify_transition(fn: Callable) -> Optional[str]:
    """The static target state if *fn* ignores its env, else ``None``.

    Transition functions are pure over their env (generated from the FSM
    guards), so a call that reads nothing from the env always returns
    the same state.
    """
    probe = _ProbeEnv()
    try:
        target = fn(probe)
    except Exception:
        return None
    if probe.touched or not isinstance(target, str):
        return None
    return target


# ----------------------------------------------------------------------
# Kernel statements
# ----------------------------------------------------------------------
# Codegen lowers each FSM state once, to :class:`_StateIR`, and renders
# every kernel shape from it.  A statement is an ``(out, code, ins)``
# triple: ``ins`` holds the tokens it reads — signal locals (``v<N>``) or
# literals — and ``code`` is a :meth:`str.format` template over them.  A
# ``str`` code renders as the line ``out = code`` (bare ``code`` when
# ``out`` is None); a tuple of ``(indent, template)`` lines renders as a
# block, whose write of ``out`` passes treat as conditional.  Every
# other name in a template is a kernel temp (``_q*``, ``_g*``, ``_e``,
# ``s`` ...) or a ctx binding, so a pass rewrites what a statement reads
# by substituting ``ins``, never by parsing text.

def _is_local(token: str) -> bool:
    """Signal locals are ``v<index>``; every kernel temp starts with
    ``_`` (or is ``s``/``n``), and literals with a digit or ``-``."""
    return token[0] == "v"


def _copy_source(stmt) -> Optional[str]:
    """The token a pure copy ``out = token`` of a signal local or a
    non-negative literal reads, or ``None`` for any other statement."""
    if stmt[1] != "{0}":
        return None
    token = stmt[2][0]
    return token if _is_local(token) or token.isdigit() else None


def _subst(stmt, mapping: Dict[str, str]):
    """*stmt* reading ``mapping[token]`` wherever it read ``token``."""
    out, code, ins = stmt
    return out, code, tuple([mapping.get(token, token) for token in ins])


def _render(stmts, base: int) -> List[Tuple[int, str]]:
    """Statements as ``(indent, text)`` lines at indent *base*."""
    lines: List[Tuple[int, str]] = []
    for out, code, ins in stmts:
        if code.__class__ is str:
            text = code.format(*ins)
            lines.append((base, text if out is None else f"{out} = {text}"))
        else:
            lines.extend((base + rel, text.format(*ins)) for rel, text in code)
    return lines


def _lit(text: str) -> str:
    """*text* as literal template text (braces escaped)."""
    return text.replace("{", "{{").replace("}", "}}")


class _Operands:
    """An emitter's view of its operator's inputs.

    ``r(sig)`` records the token *sig* reads as (a local name, or a
    control line's value in this state) and returns its template field;
    ``r.const(sig)`` is the control value, or ``None`` for a signal.
    """

    __slots__ = ("token", "const", "ins")

    def __init__(self, token: Callable, const: Callable) -> None:
        self.token = token
        self.const = const
        self.ins: List[str] = []

    def __call__(self, sig: Signal) -> str:
        token = self.token(sig)
        if token not in self.ins:
            self.ins.append(token)
        return "{%d}" % self.ins.index(token)


# ----------------------------------------------------------------------
# Expression emitters (one per exact operator type)
# ----------------------------------------------------------------------
# Each emitter returns the template of its output's new value over the
# fields ``r(sig)`` hands out, or — for ops that need a statement, not
# an expression — a guarded form ``(cond, then, else, else_stmt)``;
# :func:`_lower_op` pairs it with the output token and the input tokens.

def _signed(expr: str, width: int) -> str:
    half = 1 << (width - 1)
    full = 1 << width
    return f"(({expr}) - {full} if ({expr}) & {half} else ({expr}))"


def _e_add(op, r, gen):
    return f"({r(op.a)} + {r(op.b)}) & {op.y.mask}"


def _e_sub(op, r, gen):
    return f"({r(op.a)} - {r(op.b)}) & {op.y.mask}"


def _e_mul(op, r, gen):
    return f"({r(op.a)} * {r(op.b)}) & {op.y.mask}"


def _e_mulfull(op, r, gen):
    a = _signed(r(op.a), op.width)
    b = _signed(r(op.b), op.width)
    return f"({a} * {b}) & {op.y.mask}"


def _e_div(op, r, gen):
    # the div/rem family keeps its exact semantics (truncate/floor,
    # strict or counted zero divisors) by calling a bound helper that
    # wraps the component's own compute()
    helper = gen.helper(_make_div_helper(op), op.name)
    return f"{helper}({r(op.a)}, {r(op.b)})"


def _make_div_helper(op):
    compute = op.compute
    mask = op.y.mask

    def div_helper(a: int, b: int) -> int:
        return compute(a, b) & mask

    return div_helper


def _e_neg(op, r, gen):
    return f"(-{r(op.a)}) & {op.y.mask}"


def _e_abs(op, r, gen):
    half = 1 << (op.width - 1)
    full = 1 << op.width
    return (f"({full} - {r(op.a)}) & {op.y.mask} "
            f"if {r(op.a)} & {half} else {r(op.a)}")


def _e_min(op, r, gen):
    half = 1 << (op.width - 1)
    return (f"{r(op.a)} if ({r(op.a)} ^ {half}) <= "
            f"({r(op.b)} ^ {half}) else {r(op.b)}")


def _e_max(op, r, gen):
    half = 1 << (op.width - 1)
    return (f"{r(op.a)} if ({r(op.a)} ^ {half}) >= "
            f"({r(op.b)} ^ {half}) else {r(op.b)}")


def _e_and(op, r, gen):
    return f"{r(op.a)} & {r(op.b)}"


def _e_or(op, r, gen):
    return f"{r(op.a)} | {r(op.b)}"


def _e_xor(op, r, gen):
    return f"{r(op.a)} ^ {r(op.b)}"


def _e_not(op, r, gen):
    return f"{r(op.a)} ^ {op.y.mask}"


def _e_shl(op, r, gen):
    return (f"(({r(op.a)} << {r(op.b)}) & {op.y.mask}) "
            f"if {r(op.b)} < {op.width} else 0")


def _e_lshr(op, r, gen):
    return f"({r(op.a)} >> {r(op.b)}) if {r(op.b)} < {op.width} else 0"


def _e_ashr(op, r, gen):
    half = 1 << (op.width - 1)
    sa = _signed(r(op.a), op.width)
    return (f"{r(op.b)} < {op.width}",
            f"({sa} >> {r(op.b)}) & {op.y.mask}",
            f"{op.y.mask} if {r(op.a)} & {half} else 0", None)


_CMP = {"eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">="}


def _e_cmp(op, r, gen):
    symbol = _CMP[op.op]
    a, b = r(op.a), r(op.b)
    if op.signed_mode and op.op not in ("eq", "ne"):
        half = 1 << (op.width - 1)
        a, b = f"({a} ^ {half})", f"({b} ^ {half})"
    return f"1 if {a} {symbol} {b} else 0"


def _e_zext(op, r, gen):
    return r(op.a)


def _e_sext(op, r, gen):
    ext = op.y.mask ^ op.a.mask
    half = 1 << (op.a.width - 1)
    return f"({r(op.a)} | {ext}) if {r(op.a)} & {half} else {r(op.a)}"


def _e_trunc(op, r, gen):
    return f"{r(op.a)} & {op.y.mask}"


def _e_slice(op, r, gen):
    return f"({r(op.a)} >> {op.low}) & {op.y.mask}"


def _e_concat(op, r, gen):
    expr = r(op.inputs[0])
    for sig in op.inputs[1:]:
        expr = f"(({expr} << {sig.width}) | {r(sig)})"
    return expr


def _e_mux(op, r, gen):
    index = r.const(op.sel)
    if index is None:
        # dynamic select: guard chain, out-of-range falls back to input 0
        sel = r(op.sel)
        expr = r(op.inputs[0])
        for index in range(len(op.inputs) - 1, 0, -1):
            expr = f"{r(op.inputs[index])} if {sel} == {index} else {expr}"
        return expr
    return r(op.inputs[index if index < len(op.inputs) else 0])


def _e_sram_read(op, r, gen):
    words = gen.mem(op.image, op.name)
    comp = gen.comp(op)
    return (f"{r(op.addr)} < {op.image.depth}", f"{words}[{r(op.addr)}]",
            "0", f"{comp}.oob_reads += 1")


def _e_rom_read(op, r, gen):
    words = gen.mem(op.image, op.name)
    comp = gen.comp(op)
    return (f"{words}[{r(op.addr)}] if {r(op.addr)} < {op.image.depth} "
            f"else {comp}.image.read({r(op.addr)})")


# The emitter tables are built lazily: this module is imported from the
# ``repro.sim`` package __init__, which the operator modules themselves
# import (for Combinational/Sequential/Signal), so importing operators
# at module scope here would be circular.
_EMITTERS: Dict[type, Callable] = {}
_T: Dict[str, type] = {}


def _ensure_tables() -> None:
    if _EMITTERS:
        return
    from ..operators.arithmetic import (
        AbsValue, Adder, Constant, DividerFloor, DividerSigned,
        DividerUnsigned, MaxSigned, MinSigned, Multiplier, MultiplierFull,
        Negate, RemainderFloor, RemainderSigned, RemainderUnsigned,
        Subtractor)
    from ..operators.comparison import Comparator
    from ..operators.conversion import (Concat, SignExtend, Slice, Truncate,
                                        ZeroExtend)
    from ..operators.logic import (BitwiseAnd, BitwiseNot, BitwiseOr,
                                   BitwiseXor, ShiftLeft, ShiftRightArith,
                                   ShiftRightLogical)
    from ..operators.memory import Rom, Sram
    from ..operators.mux import Mux
    from ..operators.registers import Register

    _EMITTERS.update({
        Adder: _e_add, Subtractor: _e_sub, Multiplier: _e_mul,
        MultiplierFull: _e_mulfull,
        DividerSigned: _e_div, RemainderSigned: _e_div,
        DividerFloor: _e_div, RemainderFloor: _e_div,
        DividerUnsigned: _e_div, RemainderUnsigned: _e_div,
        Negate: _e_neg, AbsValue: _e_abs,
        MinSigned: _e_min, MaxSigned: _e_max,
        BitwiseAnd: _e_and, BitwiseOr: _e_or, BitwiseXor: _e_xor,
        BitwiseNot: _e_not,
        ShiftLeft: _e_shl, ShiftRightLogical: _e_lshr,
        ShiftRightArith: _e_ashr,
        Comparator: _e_cmp,
        ZeroExtend: _e_zext, SignExtend: _e_sext, Truncate: _e_trunc,
        Slice: _e_slice, Concat: _e_concat,
        Mux: _e_mux,
        Sram: _e_sram_read, Rom: _e_rom_read,
    })
    _T.update({
        "Register": Register, "Sram": Sram, "Rom": Rom,
        "Constant": Constant, "Mux": Mux, "Concat": Concat,
    })
    _T["unary"] = (Negate, AbsValue, BitwiseNot, ZeroExtend, SignExtend,
                   Truncate, Slice)  # type: ignore[assignment]


def _op_inputs(op, const_of) -> List[Signal]:
    """The input signals whose values the emitted code for *op* reads."""
    kind = type(op)
    if kind is _T["Mux"]:
        value = const_of(op.sel)
        if value is None:
            return [op.sel, *op.inputs]
        index = value if value < len(op.inputs) else 0
        return [op.inputs[index]]
    if kind is _T["Sram"] or kind is _T["Rom"]:
        return [op.addr]
    if kind is _T["Concat"]:
        return list(op.inputs)
    if kind in _T["unary"]:
        return [op.a]
    return [op.a, op.b]


def _op_output(op) -> Signal:
    kind = type(op)
    if kind is _T["Sram"] or kind is _T["Rom"]:
        return op.dout
    return op.y


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------
class _Codegen:
    """Name registry for objects the generated module binds from ctx.

    Each registry also records the *component name* that owns the bound
    object, so a cached kernel can re-bind against a fresh elaboration
    of the same design (see :func:`_program_from_cache`).
    """

    def __init__(self) -> None:
        self.mems: List[list] = []
        self.mem_owners: List[str] = []
        self._mem_index: Dict[int, str] = {}
        self.comps: List[object] = []
        self._comp_index: Dict[int, str] = {}
        self.helpers: List[Callable] = []
        self.helper_owners: List[str] = []

    def mem(self, image, owner: str) -> str:
        name = self._mem_index.get(id(image))
        if name is None:
            name = f"_m{len(self.mems)}"
            self._mem_index[id(image)] = name
            self.mems.append(image._words)
            self.mem_owners.append(owner)
        return name

    def comp(self, component) -> str:
        name = self._comp_index.get(id(component))
        if name is None:
            name = f"_c{len(self.comps)}"
            self._comp_index[id(component)] = name
            self.comps.append(component)
        return name

    def helper(self, fn: Callable, owner: str) -> str:
        self.helpers.append(fn)
        self.helper_owners.append(owner)
        return f"_f{len(self.helpers) - 1}"


class _StateIR:
    """One FSM state, lowered once; every kernel shape renders from it.

    Tokens are signal locals (``v<N>``) or literals (a control line's
    value in this state); statements are ``(out, code, ins)`` triples
    (see :func:`_render`).  The edge entries, in the order they run:

    * ``samples`` — register samples ``(reg_key, d_key, d, en, q,
      q_key)``; ``en`` is ``None`` for an unconditional sample and
      ``d_key`` is ``None`` when D is a state constant;
    * ``sram_writes`` — ``(mem_key, stmt, we)``: the bounds-checked
      write block, guarded by the dynamic write-enable token ``we``
      (``None`` when the port is always on);
    * the transition — ``target``, the static successor's index, or
      ``dynamic`` with ``env``, the ``(status, token)`` pairs the
      transition function reads;
    * ``forces`` — ``(reg_key, stmt)``: a stuck-at force after the
      commit of the faulted register;
    * ``flip`` — the windowed one-shot XOR of a transient flip pinned
      to this state, or ``None``.

    ``settle_ops`` holds ``(op_key, out_key, in_keys, stmt)`` in
    topological order; ``in_keys`` mixes signal keys with memory-image
    pseudo-keys, and a stuck-at force on a net follows the op driving
    it as an entry of its own (keyed by the net).
    """

    __slots__ = ("index", "name", "dynamic", "target", "env", "samples",
                 "sram_writes", "forces", "flip", "settle_ops")

    def __init__(self, index: int, name: str) -> None:
        self.index = index
        self.name = name
        self.dynamic = False
        self.target: Optional[int] = None
        self.env: tuple = ()
        self.samples: List[tuple] = []
        self.sram_writes: List[tuple] = []
        self.forces: List[tuple] = []
        self.flip: Optional[tuple] = None
        self.settle_ops: List[tuple] = []


def _lower_op(op, r: _Operands, gen: _Codegen, out: str) -> tuple:
    """*op* as the statement that recomputes its output local *out*."""
    code = _EMITTERS[type(op)](op, r, gen)
    if code.__class__ is not str:
        cond, then, other, extra = code
        code = ((0, f"if {cond}:"), (1, f"{out} = {then}"),
                (0, "else:"), (1, f"{out} = {other}"))
        if extra is not None:
            code += ((1, extra),)
    return out, code, tuple(r.ins)


def _transition(ir: _StateIR, mode: str, instrumented: bool,
                n_states: int) -> List[tuple]:
    """The statements that leave *ir*'s state (see _render_segments)."""
    if not ir.dynamic:
        if mode != "plain":
            return []
        stmts = [] if ir.target == ir.index else [
            ("s", str(ir.target), ()), (None, "_nt += 1", ())]
        if instrumented:
            stmts.append(
                (None, f"tc[{ir.index * n_states + ir.target}] += 1", ()))
        return stmts
    tokens = tuple(token for _name, token in ir.env)
    if mode == "guard":
        # snapshot the status values the transition would read (register
        # commits after it may clobber the live locals); the caller
        # tests the loop guard on the snapshot and reconstructs _e once,
        # at trace exit
        return [(f"_g{k}", "{%d}" % k, tokens) for k in range(len(tokens))]
    env = ", ".join("%s: {%d}" % (_lit(repr(name)), k)
                    for k, (name, _token) in enumerate(ir.env))
    stmts = [("_e", "_t%d({{%s}})" % (ir.index, env), tokens),
             (None, ((0, f"if _e != {_lit(repr(ir.name))}:"),
                     (1, "_nt += 1")), ())]
    if mode == "plain" or instrumented:
        stmts.append(("s", "_sid[_e]", ()))
    if instrumented:
        stmts.append((None, f"tc[{ir.index * n_states} + s] += 1", ()))
    return stmts


def _render_segments(segments, records, *, mode: str, instrumented: bool,
                     n_states: int, drop_we: frozenset = frozenset(),
                     ) -> List[tuple]:
    """The chosen entries of each ``(kind, ir)`` segment, as statements.

    A record is the set of chosen op keys (settle) or register keys
    (edge); ``None`` chooses every entry, which is how the plain
    per-state tree renders.  *mode* renders the transition: ``"plain"``
    updates ``s`` and tallies every transition, ``"fused"`` leaves
    static transitions to the trace's hoisted accounting, ``"guard"``
    only snapshots the status tokens for a loop guard.  SRAM writes
    whose write-enable token is in *drop_we* are left out.

    An edge runs samples, SRAM writes, transition, commits, forces and
    flip, except that a register whose old Q is not read later in the
    edge commits directly, with no ``_qN`` staging temp.
    """
    stmts: List[tuple] = []
    for (kind, ir), chosen in zip(segments, records):
        if kind == "settle":
            stmts.extend(stmt for key, _out, _ins, stmt in ir.settle_ops
                         if chosen is None or key in chosen)
            continue
        emitted = [sample for sample in ir.samples
                   if chosen is None or sample[0] in chosen]
        writes = [stmt for _key, stmt, we in ir.sram_writes
                  if we not in drop_we]
        # tokens read after the sample block: SRAM write operands and
        # the transition env, plus each later sample's own operands
        tail = {token for stmt in writes for token in stmt[2]}
        if ir.dynamic:
            tail.update(token for _name, token in ir.env)
        reads_after: List[set] = [set() for _ in emitted]
        for position in range(len(emitted) - 1, -1, -1):
            reads_after[position] = set(tail)
            _rk, _dk, d, en, q, _qk = emitted[position]
            tail.add(d)
            if en is not None:
                tail.update((en, q))
        commits: List[tuple] = []
        for position, (_rk, _dk, d, en, q, _qk) in enumerate(emitted):
            sample = ("{0}", (d,)) if en is None \
                else ("{0} if {1} else {2}", (d, en, q))
            if q not in reads_after[position]:
                stmts.append((q, *sample))
                continue
            temp = f"_q{len(commits)}"
            stmts.append((temp, *sample))
            commits.append((q, temp, ()))
        stmts.extend(writes)
        stmts.extend(_transition(ir, mode, instrumented, n_states))
        stmts.extend(commits)
        stmts.extend(stmt for key, stmt in ir.forces
                     if chosen is None or key in chosen)
        if ir.flip is not None:
            stmts.append(ir.flip)
    return stmts


class CompiledProgram:
    """Everything one compiled elaboration needs at run time."""

    def __init__(self) -> None:
        self.runner: Callable = None  # type: ignore[assignment]
        self.controller = None
        self.domain: Optional[ClockDomain] = None
        self.names: List[str] = []
        self.sid: Dict[str, int] = {}
        self.n_states = 0
        self.control_sync: List[Tuple[Signal, List[int]]] = []
        self.control_names: Dict[int, str] = {}  # id(signal) -> output name
        self.eval_static: List[int] = []
        self.edge_static: List[int] = []
        self.comb_components: List[object] = []
        self.images: List[object] = []
        self.component_ids: set = set()
        self.instrumented = False
        self.profiled = False
        self.state_active_ops: List[frozenset] = []
        self.source = ""
        self.empty_stop: frozenset = frozenset()
        self._stop_cache: Dict[int, Optional[frozenset]] = {}
        self._vectors: Dict[str, Dict[str, int]] = {}
        #: trace-fusion summary (fused kernels only)
        self.fusion: Optional[dict] = None

    def stop_states(self, signal: Signal) -> Optional[frozenset]:
        """States in which *signal* is high, or None if not a Moore line."""
        cached = self._stop_cache.get(id(signal))
        if cached is not None or id(signal) in self._stop_cache:
            return cached
        name = self.control_names.get(id(signal))
        if name is None:
            self._stop_cache[id(signal)] = None
            return None
        stop = frozenset(
            index for index, state in enumerate(self.names)
            if self._vectors[state][name]
        )
        self._stop_cache[id(signal)] = stop
        return stop


def _is_controller(component) -> bool:
    """Duck-typed FsmController check (sim must not import translate)."""
    return (isinstance(component, Sequential)
            and hasattr(component, "behavior")
            and hasattr(component, "status_signals")
            and hasattr(component, "output_signals")
            and hasattr(component, "state"))


class _DesignFacts:
    """The cheap live-object walk shared by fresh builds and cache loads."""

    __slots__ = ("components", "controller", "domain", "behavior", "names",
                 "sid", "vectors", "control_signals", "registers", "srams",
                 "roms", "comb_ops", "tracked", "local")


def _analyze_design(sim: Simulator) -> _DesignFacts:
    _ensure_tables()
    facts = _DesignFacts()
    facts.components = components = list(sim._components.values())
    controllers = [c for c in components if _is_controller(c)]
    if len(controllers) != 1:
        raise _Unsupported(f"{len(controllers)} FSM controllers (need 1)")
    facts.controller = controller = controllers[0]
    if controller.start_signal is not None:
        raise _Unsupported("start/done handshake in use")
    if len(sim._domains) > 1:
        raise _Unsupported("multiple clock domains")
    facts.domain = domain = sim._default_domain or sim.default_domain

    facts.behavior = behavior = controller.behavior
    facts.names = names = list(behavior.output_vectors)
    facts.sid = {name: index for index, name in enumerate(names)}
    if behavior.reset_state not in facts.sid:
        raise _Unsupported("reset state missing from output vectors")
    facts.vectors = {name: dict(behavior.output_vectors[name])
                     for name in names}

    # classify components ------------------------------------------------
    control_signals: Dict[int, str] = {}
    for output, signal in controller.output_signals.items():
        if signal.driver is not None:
            raise _Unsupported(f"control line {output!r} has a driver")
        control_signals[id(signal)] = output
    facts.control_signals = control_signals

    facts.registers = registers = []
    facts.srams = srams = []
    facts.roms = roms = []
    facts.comb_ops = comb_ops = []
    for component in components:
        if component is controller:
            continue
        kind = type(component)
        if kind is _T["Register"]:
            registers.append(component)
        elif kind is _T["Sram"]:
            srams.append(component)
            comb_ops.append(component)  # combinational read path
        elif kind is _T["Rom"]:
            roms.append(component)
            comb_ops.append(component)
        elif kind is _T["Constant"]:
            continue  # outputs never change after elaboration
        elif kind in _EMITTERS:
            comb_ops.append(component)
        else:
            raise _Unsupported(f"no emitter for {kind.__name__} "
                               f"({component.name!r})")
        if isinstance(component, Sequential) \
                and component not in domain.members:
            raise _Unsupported(
                f"{component.name!r} outside the default clock domain")

    # signal locals ------------------------------------------------------
    facts.tracked = tracked = [sig for sig in sim._signals.values()
                               if id(sig) not in control_signals]
    facts.local = {id(sig): f"v{index}"
                   for index, sig in enumerate(tracked)}
    return facts


def _fault_token(spec) -> str:
    """The compile-time shape of a fault spec (part of the cache key).

    Only what codegen specializes on — kind, target signal, pinned
    state — is in the token; runtime parameters (masks, cycle window,
    one-shot latch) are bound from ``ctx`` at load time, so all faults
    sharing a shape share one cached kernel.
    """
    if spec is None:
        return ""
    return "%s:%s:%s" % (spec.kind, spec.signal,
                         getattr(spec, "state", None) or "")


def _fault_runtime(spec) -> Optional[dict]:
    """The ctx entry carrying a fault spec's runtime parameters."""
    if spec is None:
        return None
    if spec.kind == "stuck":
        return {"and_mask": spec.and_mask, "or_mask": spec.or_mask}
    return {"xor_mask": spec.xor_mask, "lo": spec.lo, "hi": spec.hi,
            "latch": spec.latch}


def _transition_fns(behavior) -> Callable:
    """Per-state transition-callable factory for *behavior*."""
    dispatch = getattr(behavior, "transitions", None)

    def transition_fn(state: str) -> Callable:
        if dispatch is not None:
            return dispatch[state]
        return lambda env, _s=state: behavior.next_state(_s, env)

    return transition_fn


def _generate(sim: Simulator, facts: _DesignFacts) -> Tuple[dict, object]:
    """Lower every FSM state once, to :class:`_StateIR`, and render the
    kernel module from it; returns the cache payload and code object."""
    instrumented = bool(getattr(sim, "coverage_enabled", False))
    profiled = bool(getattr(sim, "profile_enabled", False))
    controller = facts.controller
    names = facts.names
    sid = facts.sid
    vectors = facts.vectors
    control_signals = facts.control_signals
    registers = facts.registers
    srams = facts.srams
    roms = facts.roms
    tracked = facts.tracked
    local = facts.local

    # --- fault instrumentation (see repro.inject) -----------------------
    # Faults are IR entries.  A stuck-at is a force statement after every
    # write to the target local (entry sync, its register's commits, the
    # op driving it); a transient flip is a one-shot XOR at the end of
    # its pinned state's edge (after commits, so a flipped register
    # output survives the edge), gated by a cycle window.  Runtime
    # parameters live in ctx["fault"], so the generated source depends
    # only on the fault's shape (see :func:`_fault_token`).
    fault = getattr(sim, "fault_spec", None)
    fault_sig = force = flip = None
    if fault is not None:
        fault_sig = sim._signals.get(fault.signal)
        if fault_sig is None or id(fault_sig) not in local:
            raise _Unsupported(
                f"fault target {fault.signal!r} is not a tracked signal")
        target = local[id(fault_sig)]
        if fault.kind == "stuck":
            force = (target, "({0} & _fa) | _fo", (target,))
        elif fault.kind == "flip":
            if getattr(fault, "state", None) not in sid:
                raise _Unsupported(
                    f"fault state {getattr(fault, 'state', None)!r} "
                    f"not an FSM state")
            flip = (target, (
                (0, "if _fb[0] == 0 and _fc0 <= n <= _fc1:"),
                (1, "_fb[0] = 1"),
                (1, f"{target} = ({{0}} ^ _fx) & {fault_sig.mask}")),
                (target,))
        else:
            raise _Unsupported(f"unknown fault kind {fault.kind!r}")

    try:
        topo = levelize(facts.comb_ops)
    except CombinationalLoopError as exc:
        raise _Unsupported(f"not levelizable: {exc}") from exc

    # transitions --------------------------------------------------------
    transition_fn = _transition_fns(facts.behavior)
    static_target: Dict[str, Optional[str]] = {}
    dynamic_fns: Dict[int, Callable] = {}
    for name in names:
        fn = transition_fn(name)
        target = _classify_transition(fn)
        if target is not None and target not in sid:
            target = None
        static_target[name] = target
        if target is None:
            dynamic_fns[sid[name]] = fn

    gen = _Codegen()
    status_items = list(controller.status_signals.items())

    def make_val(vector: Dict[str, int]):
        def val(sig: Signal) -> str:
            name = control_signals.get(id(sig))
            if name is not None:
                return str(vector[name])
            return local[id(sig)]
        return val

    def make_const_of(vector: Dict[str, int]):
        def const_of(sig: Signal) -> Optional[int]:
            name = control_signals.get(id(sig))
            return None if name is None else vector[name]
        return const_of

    # per-state lowering -------------------------------------------------
    n_states = len(names)
    eval_static = [0] * n_states
    edge_static = [0] * n_states
    state_active_ops: List[frozenset] = []
    state_ir: List[_StateIR] = []
    always_armed = 1 + len(roms)  # controller + no-op ROM members
    is_mem_read = (_T["Sram"], _T["Rom"])

    for index, state in enumerate(names):
        vector = vectors[state]
        val = make_val(vector)
        const_of = make_const_of(vector)
        ir = _StateIR(index, state)
        successor = static_target[state]
        ir.dynamic = successor is None
        ir.target = None if successor is None else sid[successor]

        # --- edge phase (state's constants, pre-edge values) ----------
        roots: List[Signal] = []
        active_names: set = set()
        armed = always_armed
        for register in registers:
            enable = register.en
            mode = None if enable is None else const_of(enable)
            if enable is not None and mode == 0:
                continue
            active_names.add(register.name)
            armed += 1  # a dynamic enable is counted as armed (estimate)
            roots.append(register.d)
            d, q = val(register.d), local[id(register.q)]
            en = None
            if enable is not None and mode != 1:
                roots.append(enable)
                en = val(enable)
            elif d == q:
                continue
            d_key = (None if id(register.d) in control_signals
                     else id(register.d))
            ir.samples.append((id(register), d_key, d, en, q, id(register.q)))
            if force is not None and register.q is fault_sig:
                ir.forces.append((id(register), force))
        for sram in srams:
            mode = const_of(sram.we)
            if mode == 0:
                continue
            active_names.add(sram.name)
            roots.extend((sram.addr, sram.din))
            words = gen.mem(sram.image, sram.name)
            comp = gen.comp(sram)
            r = _Operands(val, const_of)
            addr = r(sram.addr)
            block = ((0, f"if {addr} < {sram.image.depth}:"),
                     (1, f"{words}[{addr}] = {r(sram.din)}"),
                     (1, f"{comp}.writes += 1"),
                     (0, "else:"),
                     (1, f"_wo({comp}, {addr})"))
            we = None
            if mode == 1:
                armed += 1
            else:  # dynamic write enable
                roots.append(sram.we)
                we = val(sram.we)
                block = ((0, f"if {r(sram.we)}:"),
                         *((rel + 1, text) for rel, text in block))
            ir.sram_writes.append((words, (None, block, tuple(r.ins)), we))
        if ir.dynamic:  # the controller samples pre-edge statuses
            roots.extend(sig for _, sig in status_items)
            ir.env = tuple((name, val(sig)) for name, sig in status_items)
        if flip is not None and sid[fault.state] == index:
            ir.flip = flip
        edge_static[index] = armed

        # --- settle phase: live cone under this state's constants -----
        live = {id(sig) for sig in roots}
        live_ops: set = set()
        for op in reversed(topo):
            if id(_op_output(op)) in live:
                live_ops.add(id(op))
                for sig in _op_inputs(op, const_of):
                    live.add(id(sig))
        for op in topo:
            if id(op) not in live_ops:
                continue
            output = _op_output(op)
            stmt = _lower_op(op, _Operands(val, const_of), gen,
                             local[id(output)])
            active_names.add(op.name)
            in_keys = [id(sig) for sig in _op_inputs(op, const_of)
                       if id(sig) not in control_signals]
            if type(op) in is_mem_read:
                # reads also depend on the memory contents
                in_keys.append(gen.mem(op.image, op.name))
            ir.settle_ops.append((id(op), id(output), tuple(in_keys), stmt))
            if force is not None and output is fault_sig:
                key = id(output)
                ir.settle_ops.append((key, key, (key,), force))
        state_active_ops.append(frozenset(active_names))
        state_ir.append(ir)
        eval_static[index] = len(live_ops)

    # --- trace fusion (fuse=True: traced and batched backends) ---------
    fusion = None
    if sim.fuse:
        from .trace import build_fusion  # sibling module imports us back

        fusion = build_fusion(
            state_ir=state_ir, names=names, sid=sid,
            static_target=static_target, dynamic_fns=dynamic_fns,
            statuses=[(name, signal.width)
                      for name, signal in status_items],
            instrumented=instrumented, n_states=n_states,
            profiled=profiled)

    # --- assemble the module -------------------------------------------
    out: List[str] = []

    def emit(indent: int, text: str) -> None:
        out.append("    " * indent + text)

    def emit_lines(indent: int, lines: List[Tuple[int, str]]) -> None:
        for rel, text in lines:
            out.append("    " * (indent + rel) + text)

    def emit_tree(indent: int, ids: List[int], kind: str) -> None:
        """The plain per-state tree: every entry of every state."""
        if len(ids) == 1:
            stmts = _render_segments(
                [(kind, state_ir[ids[0]])], [None], mode="plain",
                instrumented=instrumented, n_states=n_states)
            emit_lines(indent, _render(stmts, 0) or [(0, "pass")])
            return
        mid = len(ids) // 2
        emit(indent, f"if s < {ids[mid]}:")
        emit_tree(indent + 1, ids[:mid], kind)
        emit(indent, "else:")
        emit_tree(indent + 1, ids[mid:], kind)

    emit(0, "def _make(ctx):")
    emit(1, '_sid = ctx["sid"]')
    emit(1, '_S = ctx["signals"]')
    emit(1, '_wo = ctx["write_oob"]')
    for position in range(len(gen.mems)):
        emit(1, f'_m{position} = ctx["mems"][{position}]')
    for position in range(len(gen.comps)):
        emit(1, f'_c{position} = ctx["comps"][{position}]')
    for position in range(len(gen.helpers)):
        emit(1, f'_f{position} = ctx["helpers"][{position}]')
    for state_id in sorted(dynamic_fns):
        emit(1, f'_t{state_id} = ctx["transitions"][{state_id}]')
    if fault is not None:
        emit(1, '_flt = ctx["fault"]')
        if fault.kind == "stuck":
            emit(1, '_fa = _flt["and_mask"]')
            emit(1, '_fo = _flt["or_mask"]')
        else:
            emit(1, '_fx = _flt["xor_mask"]')
            emit(1, '_fc0 = _flt["lo"]')
            emit(1, '_fc1 = _flt["hi"]')
            emit(1, '_fb = _flt["latch"]')
    if profiled:
        # the hot-spot clock: one perf_counter_ns per plain-path cycle
        # (fused traces read it once per trace entry/exit instead)
        emit(1, '_pc = ctx["perf"]')
    if fusion is not None:
        for text in fusion.prelude:
            emit(1, text)
    emit(1, "def _run(s, max_cycles, stop, counts, tc, box%s):"
            % (", pw" if profiled else ""))
    for index, sig in enumerate(tracked):
        emit(2, f"v{index} = _S[{index}].value")
    state_ids = list(range(n_states))
    if force is not None:
        # the pre-run settle saw the unforced value (a constant's net
        # never changes again): force it, re-settle the start state
        emit_lines(2, _render([force], 0))
        emit_tree(2, state_ids, "settle")
    emit(2, "n = 0")
    emit(2, "_nt = 0")
    if fusion is not None:
        for text in fusion.entry:
            emit(2, text)
    emit(2, "try:")
    emit(3, "while n < max_cycles:")
    emit(4, "if s in stop:")
    emit(5, "break")
    if fusion is not None:
        emit_lines(4, fusion.dispatch)
    emit(4, "counts[s] += 1")
    emit(4, "n += 1")
    if profiled:
        # the edge tree rewrites ``s``; remember whose cycle this was
        emit(4, "_ps = s")
        emit(4, "_pt = _pc()")
    emit_tree(4, state_ids, "edge")
    emit_tree(4, state_ids, "settle")
    if profiled:
        emit(4, "pw[_ps] += _pc() - _pt")
    emit(2, "finally:")
    emit(3, "box[0] = s")
    emit(3, "box[1] = n")
    emit(3, "box[2] = _nt")
    for index in range(len(tracked)):
        emit(3, f"_S[{index}].value = v{index}")
    emit(1, "return _run")
    source = "\n".join(out) + "\n"

    code = compile(source, f"<compiled-sim:{sim.name}>", "exec")
    payload = {
        "kind": "kernel",
        "names": names,
        "n_tracked": len(tracked),
        "mems": gen.mem_owners,
        "comps": [c.name for c in gen.comps],
        "helpers": gen.helper_owners,
        "images": list({id(m.image): m.name
                        for m in (*srams, *roms)}.values()),
        "dynamic": sorted(dynamic_fns),
        "eval_static": eval_static,
        "edge_static": edge_static,
        "active_ops": [sorted(active) for active in state_active_ops],
        "instrumented": instrumented,
        "profiled": profiled,
        "fault_token": _fault_token(fault),
        "fusion": fusion.summary if fusion is not None else None,
        "source": source,
    }
    return payload, code


def _write_oob(comp, address):
    raise SimulationError(
        f"{comp.name!r}: write address {address} exceeds depth "
        f"{comp.image.depth}"
    )


def _bind(sim: Simulator, facts: _DesignFacts, payload: dict,
          code) -> CompiledProgram:
    """Bind a kernel (freshly generated or cached) to *sim*'s live
    elaboration: objects the module uses are looked up by the names
    of the components that own them."""
    by_name = sim._components
    transition_fn = _transition_fns(facts.behavior)
    namespace: Dict[str, object] = {}
    exec(code, namespace)
    ctx = {
        "sid": facts.sid,
        "signals": facts.tracked,
        "mems": [by_name[owner].image._words for owner in payload["mems"]],
        "comps": [by_name[owner] for owner in payload["comps"]],
        "helpers": [_make_div_helper(by_name[owner])
                    for owner in payload["helpers"]],
        "transitions": {int(index): transition_fn(facts.names[int(index)])
                        for index in payload["dynamic"]},
        "write_oob": _write_oob,
        "fault": _fault_runtime(getattr(sim, "fault_spec", None)),
        "perf": time.perf_counter_ns,
    }
    program = CompiledProgram()
    program.runner = namespace["_make"](ctx)
    program.controller = facts.controller
    program.domain = facts.domain
    program.names = facts.names
    program.sid = facts.sid
    program.n_states = len(facts.names)
    program.control_sync = [
        (signal, [facts.vectors[state][output] & signal.mask
                  for state in facts.names])
        for output, signal in facts.controller.output_signals.items()
    ]
    program.control_names = facts.control_signals
    program.eval_static = list(payload["eval_static"])
    program.edge_static = list(payload["edge_static"])
    program.comb_components = [c for c in facts.components
                               if hasattr(c, "evaluate")]
    program.images = [by_name[owner].image for owner in payload["images"]]
    program.component_ids = {id(c) for c in facts.components}
    program.instrumented = payload["instrumented"]
    program.profiled = payload.get("profiled", False)
    program.state_active_ops = [frozenset(active)
                                for active in payload["active_ops"]]
    program.source = payload["source"]
    program._vectors = facts.vectors
    program.fusion = payload.get("fusion")
    return program


def _program_from_cache(sim: Simulator, facts: _DesignFacts, payload: dict,
                        code) -> Optional[CompiledProgram]:
    """Re-bind a cached kernel against a fresh elaboration of the same
    design; any structural mismatch returns ``None`` (build fresh)."""
    try:
        if facts.names != payload["names"] \
                or len(facts.tracked) != payload["n_tracked"] \
                or payload["instrumented"] != bool(
                    getattr(sim, "coverage_enabled", False)) \
                or payload.get("profiled", False) != bool(
                    getattr(sim, "profile_enabled", False)) \
                or payload.get("fault_token", "") != _fault_token(
                    getattr(sim, "fault_spec", None)):
            return None
        return _bind(sim, facts, payload, code)
    except Exception:  # noqa: BLE001 - any mismatch falls back to a build
        return None


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class CompiledSimulator(Simulator):
    """Drop-in :class:`Simulator` with a compiled specialized fast path.

    ``run_until_high`` (when the target is a Moore control line, e.g. a
    design's ``done``) and ``run_cycles`` execute through the generated
    per-design function; everything else — and any unsupported design —
    uses the inherited event-driven kernel.  ``fallback_reason`` records
    why compilation was declined, if it was.

    ``fuse=True`` adds hot-path trace fusion (:mod:`repro.sim.trace`);
    designs with no fusable traces then run exactly the plain kernel.
    The flag is part of the kernel-cache key, and the backend registry
    is the only place that sets it.
    """

    def __init__(self, name: str = "compiled-sim", *, fuse: bool = False,
                 **kwargs) -> None:
        super().__init__(name, **kwargs)
        self.fuse = fuse
        self._program: Optional[CompiledProgram] = None
        self.fallback_reason: Optional[str] = None
        self.coverage_enabled = False
        #: active fault-injection spec (see repro.inject.hooks); faults
        #: are compiled into the generated kernel, like coverage
        self.fault_spec = None
        self.state_visits: Dict[str, int] = {}
        self.transition_visits: Dict[Tuple[str, str], int] = {}
        #: hot-spot profiling (see repro.obs.profile): per-state and
        #: per-fused-trace cycle + wall-clock attribution
        self.profile_enabled = False
        self.profile_states: Dict[str, Dict[str, int]] = {}
        self.profile_traces: Dict[str, Dict[str, object]] = {}
        self.profile_cycles = 0
        #: structural hash set by build_simulation; keys the kernel cache
        self.design_digest: Optional[str] = None

    # -- coverage -------------------------------------------------------
    def enable_coverage(self) -> None:
        """Regenerate the program with coverage tallies compiled in.

        Signal watchers would force the fast path to fall back (see
        :meth:`_fastpath_blocked`), so coverage for this backend is
        collected from inside the generated loop instead: per-state
        occupancy counts (maintained anyway) plus per-transition
        tallies emitted only when this flag is on.  Resets any
        previously accumulated visit counts.
        """
        if not self.coverage_enabled:
            self.coverage_enabled = True
            self._invalidate_program()
        self.state_visits = {}
        self.transition_visits = {}

    def coverage_active_ops(self) -> Dict[str, int]:
        """Operator activation weights: live-cone membership × visits.

        An operator counts as active in a state when the state's
        specialized code evaluates it (its live cone) or samples/writes
        it (armed register, enabled SRAM port).
        """
        out: Dict[str, int] = {}
        program = self._program
        if program is None or not program.state_active_ops:
            return out
        for state, visits in self.state_visits.items():
            index = program.sid.get(state)
            if index is None or not visits:
                continue
            for name in program.state_active_ops[index]:
                out[name] = out.get(name, 0) + visits
        return out

    def fusion_report(self) -> Optional[dict]:
        """The fusion summary for the current program (None when the
        kernel does not fuse, the design fell back or nothing fused)."""
        program = self._ensure_program()
        if program is None:
            return None
        return program.fusion

    # -- hot-spot profiling ---------------------------------------------
    def enable_profile(self) -> None:
        """Regenerate the program with hot-spot accounting compiled in.

        Like :meth:`enable_coverage`, this is in-kernel
        instrumentation: the generated loop accumulates wall time per
        FSM state (plain path) and per fused trace segment (traced
        backend), alongside the per-state cycle counts it already
        keeps.  Resets any previously accumulated profile.
        """
        if not self.profile_enabled:
            self.profile_enabled = True
            self._invalidate_program()
        self.profile_states = {}
        self.profile_traces = {}
        self.profile_cycles = 0

    def profile_data(self) -> dict:
        """Accumulated attribution: ``states`` (name -> cycles/wall_ns),
        ``traces`` (label -> cycles/wall_ns/states/kind/
        cycles_per_iteration) and ``total_cycles`` run while profiling.

        Per-state cycle counts *include* cycles spent inside fused
        traces (fused accounting feeds the same counters), so a
        consumer redistributing trace cycles onto member states must
        subtract them — see :class:`repro.obs.profile.KernelProfiler`.
        """
        return {
            "states": {name: dict(entry)
                       for name, entry in self.profile_states.items()},
            "traces": {name: dict(entry)
                       for name, entry in self.profile_traces.items()},
            "total_cycles": self.profile_cycles,
        }

    # -- fault injection ------------------------------------------------
    def set_fault_spec(self, spec) -> None:
        """Install (or clear, with ``None``) a kernel fault spec.

        The program is regenerated with the fault's force/flip entries
        in its IR — the same mechanism as coverage instrumentation.
        A spec outside the compiled subset (e.g. targeting a Moore
        control line) makes compilation fall back to the event kernel;
        callers that need the fault to take effect must then install
        event-kernel hooks instead (see
        :func:`repro.inject.hooks.attach_fault`).
        """
        if spec is not self.fault_spec:
            self.fault_spec = spec
            self._invalidate_program()

    # -- program lifecycle ---------------------------------------------
    def signal(self, name: str, width: int, init: int = 0) -> Signal:
        self._invalidate_program()
        self.design_digest = None  # structure changed after elaboration
        return super().signal(name, width, init)

    def _register(self, component):
        self._invalidate_program()
        self.design_digest = None
        return super()._register(component)

    def clock_domain(self, name: str = "clk", period: int = 10) -> ClockDomain:
        if name not in self._domains:
            self._invalidate_program()
            self.design_digest = None
        return super().clock_domain(name, period)

    def _invalidate_program(self) -> None:
        self._program = None
        self.fallback_reason = None

    def _ensure_program(self) -> Optional[CompiledProgram]:
        if self._program is None and self.fallback_reason is None:
            try:
                self._program = self._load_or_build_program()
            except _Unsupported as exc:
                self.fallback_reason = str(exc)
        return self._program

    def _load_or_build_program(self) -> CompiledProgram:
        """Check the persistent kernel cache before generating code.

        The key covers everything codegen depends on: the structural
        design digest, the fusion flag, the coverage flag, the
        codegen version and (inside the cache layer) the interpreter's
        bytecode magic.  Designs without a digest (hand-built sims,
        post-elaboration mutations) always build fresh.
        """
        from ..core.kernelcache import default_cache, digest_parts

        cache = None
        payload = code = None
        if self.design_digest:
            cache = default_cache()
            key = digest_parts("kernel-v%d" % _CODEGEN_VERSION,
                               self.design_digest,
                               "fused" if self.fuse else "plain",
                               int(bool(self.coverage_enabled)),
                               int(bool(self.profile_enabled)),
                               _fault_token(self.fault_spec))
            payload, code = cache.get("kernel", key)
        facts = _analyze_design(self)
        if payload is not None and code is not None:
            program = _program_from_cache(self, facts, payload, code)
            if program is not None:
                return program
        payload, code = _generate(self, facts)
        if cache is not None:
            cache.put("kernel", key, payload, code)
        return _bind(self, facts, payload, code)

    # -- per-call safety checks ----------------------------------------
    def _fastpath_blocked(self, program: CompiledProgram) -> Optional[str]:
        if len(self._domains) > 1 or self._default_domain is not program.domain:
            return "clock domain changed"
        if self._cycle_hooks:
            return "cycle hooks installed"
        for sig in self._signals.values():
            for watcher in sig.watchers:
                if not getattr(watcher, "_arming", False):
                    return f"foreign watcher on signal {sig.name!r}"
        for image in program.images:
            for watcher in image._watchers:
                owner = getattr(watcher, "__self__", None)
                if id(owner) not in program.component_ids:
                    return f"foreign watcher on memory {image.name!r}"
        return None

    # -- fast-path entry points ----------------------------------------
    def run_until_high(self, signal: Signal, *,
                       max_cycles: int = 1_000_000,
                       domain: Optional[ClockDomain] = None) -> int:
        program = self._ensure_program()
        if program is None or \
                (domain is not None and domain is not program.domain) or \
                self._fastpath_blocked(program) is not None:
            return super().run_until_high(signal, max_cycles=max_cycles,
                                          domain=domain)
        stop = program.stop_states(signal)
        start = program.sid.get(program.controller.state)
        if stop is None or start is None:
            return super().run_until_high(signal, max_cycles=max_cycles,
                                          domain=domain)
        self.settle()
        cycles, final = self._execute(program, start, stop, max_cycles)
        if final not in stop:
            raise SimulationTimeout(
                f"condition not met within {max_cycles} cycles", max_cycles
            )
        return cycles

    def run_cycles(self, cycles: int,
                   domain: Optional[ClockDomain] = None) -> None:
        program = self._ensure_program()
        if program is None or cycles <= 0 or \
                (domain is not None and domain is not program.domain) or \
                self._fastpath_blocked(program) is not None:
            return super().run_cycles(cycles, domain)
        start = program.sid.get(program.controller.state)
        if start is None:
            return super().run_cycles(cycles, domain)
        self.settle()
        self._execute(program, start, program.empty_stop, cycles)

    # -- execution ------------------------------------------------------
    def _execute(self, program: CompiledProgram, start: int,
                 stop: frozenset, max_cycles: int) -> Tuple[int, int]:
        counts = [0] * program.n_states
        tcounts = ([0] * (program.n_states * program.n_states)
                   if program.instrumented else None)
        box = [start, 0, 0]
        pw = None
        if program.profiled:
            # layout: [0..n_states) per-state wall ns, then two slots
            # per fused trace: [n_states + 2j] wall ns,
            # [n_states + 2j + 1] cycles
            n_traces = len((program.fusion or {}).get("traces", ()))
            pw = [0] * (program.n_states + 2 * n_traces)
        try:
            if pw is not None:
                program.runner(start, max_cycles, stop, counts, tcounts,
                               box, pw)
            else:
                program.runner(start, max_cycles, stop, counts, tcounts,
                               box)
        except BaseException:
            self._post_run(program, box, counts, tcounts, pw,
                           best_effort=True)
            raise
        self._post_run(program, box, counts, tcounts, pw,
                       best_effort=False)
        return box[1], box[0]

    def _post_run(self, program: CompiledProgram, box: List[int],
                  counts: List[int], tcounts: Optional[List[int]],
                  pw: Optional[List[int]] = None,
                  *, best_effort: bool) -> None:
        final, cycles, transitions = box
        controller = program.controller
        controller.state = program.names[final]
        controller.transitions += transitions
        for signal, per_state in program.control_sync:
            signal.value = per_state[final]
        evaluations = 0
        dispatches = 0
        for index, visits in enumerate(counts):
            if visits:
                evaluations += visits * program.eval_static[index]
                dispatches += visits * program.edge_static[index]
        if program.instrumented:
            names = program.names
            visits_map = self.state_visits
            for index, visits in enumerate(counts):
                if visits:
                    name = names[index]
                    visits_map[name] = visits_map.get(name, 0) + visits
            if tcounts is not None:
                n = program.n_states
                taken_map = self.transition_visits
                for flat, taken in enumerate(tcounts):
                    if taken:
                        edge = (names[flat // n], names[flat % n])
                        taken_map[edge] = taken_map.get(edge, 0) + taken
        if program.profiled and pw is not None:
            names = program.names
            for index, visits in enumerate(counts):
                wall = pw[index]
                if visits or wall:
                    entry = self.profile_states.setdefault(
                        names[index], {"cycles": 0, "wall_ns": 0})
                    entry["cycles"] += visits
                    entry["wall_ns"] += wall
            traces = (program.fusion or {}).get("traces", ())
            for j, trace in enumerate(traces):
                t_wall = pw[program.n_states + 2 * j]
                t_cycles = pw[program.n_states + 2 * j + 1]
                if not (t_wall or t_cycles):
                    continue
                states = list(trace.get("states", ()))
                label = trace.get("kind", "trace") + ":" + (
                    states[0] if len(states) < 2
                    else f"{states[0]}->{states[-1]}")
                entry = self.profile_traces.setdefault(label, {
                    "cycles": 0, "wall_ns": 0, "states": states,
                    "kind": trace.get("kind", "trace"),
                    "cycles_per_iteration": int(
                        trace.get("cycles_per_iteration")
                        or trace.get("cycles") or len(states) or 1),
                })
                entry["cycles"] += t_cycles
                entry["wall_ns"] += t_wall
            self.profile_cycles += box[1]
        stats = self.stats
        stats.cycles += cycles
        stats.evaluations += evaluations
        stats.edge_dispatches += dispatches
        stats.signal_updates += evaluations
        domain = program.domain
        domain.cycles += cycles
        self.now += domain.period * cycles
        # restore the event-kernel invariants: arming reflects enables,
        # and one full settle leaves every signal exactly as the event
        # kernel would (also firing any lagging watchers)
        for each in self._domains.values():
            each.rearm()
        self._worklist.clear()
        self._worklist.extend(program.comb_components)
        if best_effort:
            try:
                self.settle()
            except Exception:  # noqa: BLE001 - already propagating an error
                pass
        else:
            self.settle()
