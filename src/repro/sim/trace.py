"""Hot-path trace fusion for the compiled kernel (`--backend=traced`).

The compiled backend (:mod:`repro.sim.compiled`) specializes per FSM
state but still pays, on *every* control step, the outer-loop overhead:
stop-set membership, cycle/visit accounting, and two binary dispatches
(edge + settle).  Steady-state FSM loops — a MAC loop body, a memory
sweep — spend almost all simulated cycles repeating the same short state
sequence, so this module compiles those sequences into single fused
blocks, the trace-compilation idea of the Verilator lineage applied at
the FSM-path level.

Fusion works on the one kernel IR, :class:`~repro.sim.compiled._StateIR`:
each state is lowered once into register samples, SRAM write blocks, a
transition, fault entries (stuck-at forces, a pinned flip) and settle
ops, every one a statement ``(out, code, ins)`` whose read tokens are
explicit.  The plain per-state tree and every fused body are rendered
from it by the one renderer,
:func:`~repro.sim.compiled._render_segments`, which chooses the entries
a shape runs and the transition form it needs; this module only decides
*which* entries run and rewrites tokens:

* **traces** are found statically on the FSM graph: *loop* traces are a
  header reached by a chain of static (unconditional) states ending in
  one dynamic state whose enumerated successors include the header;
  *linear* traces are maximal chains of static states;
* inside a fused trace, signal values stay in Python locals across all
  states, and an incremental *dirty-clock* analysis drops every entry
  whose inputs provably did not change since it last ran (per-operator:
  never emitted, an input written since, or its statement differs from
  the previous state's);
* a loop's steady-state body is the **union** of per-iteration emission
  sets, iterated to a fixed point from a fully-dirty peel iteration, so
  early trips are covered and extra emissions are value no-ops;
* per-state dispatch inside a loop collapses to one guarded ``while``
  over the loop's exit statuses; cycle/visit/transition accounting is
  hoisted out of the body and multiplied by the trip count;
* token passes shrink the body: pass-through settle ops are forwarded
  (consumers read the root token), register rename chains are
  copy-propagated until loop exit, and loop-invariant dynamic write
  enables select a slim body without the dead write blocks;
* register/status sync with the event kernel is untouched: the fused
  block runs between the same entry sync and exit write-back as the
  plain compiled kernel, and trace boundaries re-settle through the
  plain per-state cones.

An armed fault keeps fusion — a stuck-at force is an entry like any
other — except that a trace containing a flip's pinned state is not
fused, because ``n`` (which the flip's cycle window reads) is hoisted
out of fused bodies.  Anything the analysis cannot prove —
non-enumerable successor sets, over-long chains, non-converging bodies —
simply is not fused; the generic per-state path handles it.  Fused code
must remain identical to the event kernel in observable outputs,
including under coverage instrumentation (``enable_coverage()``
regenerates fused code with transition tallies compiled in, it does not
fall back).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from .compiled import (CompiledSimulator, _copy_source, _is_local, _render,
                       _render_segments, _StateIR, _subst)

__all__ = ["TracedSimulator", "build_fusion"]

#: most traces worth guarding in the outer loop; every generic cycle
#: pays one int-compare per trace guard, so keep the set small
_MAX_TRACES = 6
#: longest state chain considered for a single trace
_MAX_TRACE_LEN = 64
#: product cap when enumerating a transition function's successor set
_MAX_STATUS_PRODUCT = 256
#: fixed-point cap for the steady-body union; non-convergence falls
#: back to full (unpruned) per-state emission inside the fused body
_MAX_BODY_PASSES = 8


# ----------------------------------------------------------------------
# Successor enumeration
# ----------------------------------------------------------------------
def _enumerate_successors(fn: Callable,
                          statuses: List[Tuple[str, int]],
                          ) -> Optional[FrozenSet[str]]:
    """All states *fn* can return over the full status-value product.

    Transition functions are pure over their env (generated straight
    from the FSM guards), so exhaustive evaluation over every status
    combination yields the exact successor set.  Returns ``None`` when
    the product exceeds the cap or the function misbehaves.
    """
    total = 1
    for _, width in statuses:
        total <<= width
        if total > _MAX_STATUS_PRODUCT:
            return None
    names = [name for name, _ in statuses]
    targets = set()
    for combo in itertools.product(*(range(1 << width)
                                     for _, width in statuses)):
        env = dict(zip(names, combo))
        try:
            target = fn(env)
        except Exception:  # noqa: BLE001 - disqualify, don't fuse
            return None
        if not isinstance(target, str):
            return None
        targets.add(target)
    return frozenset(targets)


def _guard_combos(fn, statuses: List[Tuple[str, int]], header: str,
                  ) -> Optional[List[tuple]]:
    """Status-value combinations for which *fn* transitions to *header*.

    Lets a fused loop test "does the FSM stay in this loop?" directly
    on the sampled status values instead of calling the transition
    function and comparing state names every iteration.  ``None``
    disqualifies (same conditions as successor enumeration).
    """
    total = 1
    for _, width in statuses:
        total <<= width
        if total > _MAX_STATUS_PRODUCT:
            return None
    names = [name for name, _ in statuses]
    combos: List[tuple] = []
    for combo in itertools.product(*(range(1 << width)
                                     for _, width in statuses)):
        try:
            target = fn(dict(zip(names, combo)))
        except Exception:  # noqa: BLE001 - disqualify, don't fuse
            return None
        if target == header:
            combos.append(combo)
    return combos or None


# ----------------------------------------------------------------------
# Trace detection (static, deterministic — the plan is part of the
# generated source, which the kernel cache persists)
# ----------------------------------------------------------------------
def _find_traces(names, sid, static_target, dynamic_fns, statuses,
                 pinned=()):
    """Loop and linear traces over the FSM graph, disjoint by state and
    free of the *pinned* states (which may only end a linear trace)."""
    succ_map: Dict[str, FrozenSet[str]] = {}
    for index in sorted(dynamic_fns):
        succs = _enumerate_successors(dynamic_fns[index], statuses)
        if succs and all(target in sid for target in succs):
            succ_map[names[index]] = succs

    claimed = set(pinned)
    loops: List[tuple] = []
    for d_name in sorted(succ_map, key=sid.__getitem__):
        best = None
        for header in sorted(succ_map[d_name], key=sid.__getitem__):
            if header == d_name:
                chain = [d_name]  # self-loop
            else:
                chain = [header]
                cursor = header
                closed = False
                while len(chain) <= _MAX_TRACE_LEN:
                    nxt = static_target.get(cursor)
                    if nxt is None or nxt not in sid:
                        break
                    if nxt == d_name:
                        chain.append(d_name)
                        closed = True
                        break
                    if nxt in chain or nxt == cursor:
                        break
                    chain.append(nxt)
                    cursor = nxt
                if not closed:
                    continue
            if best is None or len(chain) > len(best):
                best = chain
        if best and not claimed.intersection(best):
            loops.append(("loop", best, succ_map[d_name]))
            claimed.update(best)

    # linear runs over the remaining static states
    next_of: Dict[str, str] = {}
    for name in names:
        target = static_target.get(name)
        if name not in claimed and target is not None \
                and target in sid and target != name:
            next_of[name] = target
    targeted = {target for target in next_of.values() if target in next_of}
    lines: List[tuple] = []
    for head in names:
        if head not in next_of or head in targeted:
            continue
        chain = [head]
        cursor = head
        while len(chain) < _MAX_TRACE_LEN:
            nxt = next_of[cursor]
            if nxt not in next_of or nxt in chain:
                break
            chain.append(nxt)
            cursor = nxt
        if len(chain) >= 2:
            lines.append(("line", chain, next_of[chain[-1]]))
            claimed.update(chain)

    loops.sort(key=lambda t: (-len(t[1]), sid[t[1][0]]))
    lines.sort(key=lambda t: (-len(t[1]), sid[t[1][0]]))
    return (loops + lines)[:_MAX_TRACES]


# ----------------------------------------------------------------------
# Incremental emission analysis (the "dirty clock")
# ----------------------------------------------------------------------
class _Clock:
    """Write-ordering state for incremental emission decisions.

    ``written`` maps a value key (signal local, or a memory pseudo-key)
    to the tick of its most recent write.  ``op_emit`` remembers when a
    settle entry last ran and what statement it ran as; ``reg_commit``
    remembers a register's last commit tick and the D token it latched
    (``None`` poisons the entry, forcing the next sample).
    """

    __slots__ = ("tick", "written", "op_emit", "reg_commit")

    def __init__(self) -> None:
        self.tick = 0
        self.written: Dict[object, int] = {}
        self.op_emit: Dict[int, Tuple[int, tuple]] = {}
        self.reg_commit: Dict[int, Tuple[int, Optional[str]]] = {}


def _walk(clock: _Clock, segments) -> List[frozenset]:
    """One pass over *segments*, returning the per-segment emission sets.

    A settle segment's set holds op keys; an edge segment's set holds
    register keys (SRAM writes and the transition call are
    unconditional and not recorded).
    """
    record: List[frozenset] = []
    for kind, ir in segments:
        emitted = set()
        if kind == "settle":
            for op_key, out_key, in_keys, stmt in ir.settle_ops:
                previous = clock.op_emit.get(op_key)
                if previous is None or previous[1] != stmt or any(
                        clock.written.get(key, -1) > previous[0]
                        for key in in_keys):
                    clock.tick += 1
                    clock.op_emit[op_key] = (clock.tick, stmt)
                    clock.written[out_key] = clock.tick
                    emitted.add(op_key)
        else:  # edge
            sampled = []
            for sample in ir.samples:
                reg_key, d_key, d_text, en_text, _q_text, _q_key = sample
                if en_text is not None:
                    need = True  # dynamic enable: always sample
                else:
                    previous = clock.reg_commit.get(reg_key)
                    need = (previous is None or previous[1] is None
                            or previous[1] != d_text
                            or (d_key is not None and
                                clock.written.get(d_key, -1) > previous[0]))
                if need:
                    emitted.add(reg_key)
                    sampled.append(sample)
            for mem_key, _stmt, _we in ir.sram_writes:
                clock.tick += 1
                clock.written[mem_key] = clock.tick
            for sample in sampled:
                reg_key, _d_key, d_text, en_text, _q_text, q_key = sample
                clock.tick += 1
                clock.written[q_key] = clock.tick
                clock.reg_commit[reg_key] = (
                    clock.tick, None if en_text is not None else d_text)
        record.append(frozenset(emitted))
    return record


def _copy_aliases(chain, ir_of) -> Tuple[set, Dict[str, str]]:
    """Pass-through settle ops forwardable inside a fused loop body.

    A settle op qualifies when, in *every* state of the chain, it is the
    same lone ``out = token`` copy (a comb wire, or a constant fold
    stable across the trace) and nothing else writes ``out`` (a stuck-at
    force does).  Such copies run on every loop iteration only to rename
    a value; forwarding lets body consumers read the root token
    directly, the copy is dropped from the rendered body, and the caller
    replays all dropped copies once at trace exit (``out = root`` is
    order-independent because roots are never dropped).  Returns
    ``(dropped_op_keys, out -> root)``.
    """
    candidates: Dict[int, Tuple[str, str]] = {}
    disqualified: set = set()
    for name in chain:
        ops = ir_of[name].settle_ops
        writers = Counter(stmt[0] for _key, _out, _ins, stmt in ops)
        for op_key, _out_key, _in_keys, stmt in ops:
            if op_key in disqualified:
                continue
            out, source = stmt[0], _copy_source(stmt)
            entry = None
            if source is not None and source != out and writers[out] == 1:
                entry = (out, source)
            if entry is None or candidates.get(op_key, entry) != entry:
                disqualified.add(op_key)
                candidates.pop(op_key, None)
            else:
                candidates[op_key] = entry

    aliases = {out: src for out, src in candidates.values()}
    out_to_key = {out: op_key
                  for op_key, (out, _src) in candidates.items()}
    while True:
        resolved: Dict[str, str] = {}
        cyclic: set = set()
        for out in aliases:
            token = out
            seen: set = set()
            while token in aliases and token not in seen:
                seen.add(token)
                token = aliases[token]
            if token in aliases:  # defensive: the comb graph is acyclic
                cyclic |= seen
            else:
                resolved[out] = token
        if not cyclic:
            break
        for out in cyclic:
            aliases.pop(out, None)
    dropped = {out_to_key[out] for out in resolved}
    return dropped, resolved


def _substitute_ir(ir: _StateIR, resolved: Dict[str, str],
                   dropped: set) -> _StateIR:
    """Render-side clone of *ir* reading forwarded roots.

    The emission analysis always runs on the original IR (dropped
    copies still mark their outputs written, so downstream consumers
    stay correctly dirty); only rendering consumes the clone.
    """
    def get(token: Optional[str]) -> Optional[str]:
        return resolved.get(token, token)

    clone = _StateIR(ir.index, ir.name)
    clone.dynamic = ir.dynamic
    clone.target = ir.target
    clone.flip = ir.flip
    clone.env = tuple((name, get(token)) for name, token in ir.env)
    clone.samples = [
        (reg_key, d_key, get(d), get(en), q, q_key)
        for reg_key, d_key, d, en, q, q_key in ir.samples]
    clone.sram_writes = [(mem_key, _subst(stmt, resolved), get(we))
                         for mem_key, stmt, we in ir.sram_writes]
    clone.forces = [(key, _subst(stmt, resolved))
                    for key, stmt in ir.forces]
    clone.settle_ops = [
        (op_key, out_key, in_keys, _subst(stmt, resolved))
        for op_key, out_key, in_keys, stmt in ir.settle_ops
        if op_key not in dropped]
    return clone


def _propagate_copies(body: List[tuple],
                      ) -> Optional[Tuple[List[tuple], List[tuple]]]:
    """Copy propagation + dead-store elimination over a steady loop body.

    Register commit chains (``v264 = v124`` ... ``v16 = v264``) dominate
    the rendered body of a deeply pipelined trace — pure data renames
    re-executed every iteration.  This pass keeps each such copy
    *pending* instead of emitting it: reads of the target are rewritten
    to read the source directly, and the store is only materialized when
    it can no longer be deferred (source about to be overwritten), is
    dead (target overwritten first), or survives to loop exit (returned
    as ``exit_stores`` for the caller's repair block).  Only signal
    locals are deferred: kernel temps (``_g*``, ``_q*``, ``_e``) are
    read outside the body by the loop guard and exit dispatch.

    The body is a loop, so the alias state at entry must equal the
    state at exit for cross-iteration reads to substitute soundly; the
    pass iterates to that fixed point and bails out (``None``) if it
    does not appear within a few rounds.  Entry pendings are valid on
    the first iteration because the peel executes the original copies
    and a surviving pending implies neither side was rewritten after
    the copy, hence target == source when the loop is entered.
    """
    def one_pass(entry: Dict[str, str]):
        alias = dict(entry)
        out: List[tuple] = []

        def materialize(targets) -> None:
            for target in sorted(targets):
                out.append((target, "{0}", (alias.pop(target),)))

        for stmt in body:
            target, code = stmt[0], stmt[1]
            if code.__class__ is not str:
                # a block writes its target only conditionally, so every
                # pending touching it materializes before the block and
                # no new pending forms inside
                if target is not None:
                    materialize([t for t in alias
                                 if t == target or alias[t] == target])
                out.append(_subst(stmt, alias))
                continue
            stmt = _subst(stmt, alias)  # reads happen before the write
            if target is None:
                out.append(stmt)
                continue
            materialize([t for t in alias if alias[t] == target])
            alias.pop(target, None)  # unconditional overwrite: dead
            source = _copy_source(stmt)
            if source is not None and _is_local(target):
                if target != source:
                    alias[target] = source
                continue  # store deferred (or self-copy dropped)
            out.append(stmt)
        return out, alias

    entry: Dict[str, str] = {}
    for _round in range(4):
        new_body, exit_alias = one_pass(entry)
        if exit_alias == entry:
            exit_stores = [(target, "{0}", (source,))
                           for target, source in sorted(exit_alias.items())]
            return new_body, exit_stores
        entry = exit_alias
    return None  # alias state did not stabilize — keep the plain body


def _full_sets(segments) -> List[set]:
    """Unpruned emission sets — the always-sound fallback body."""
    sets = []
    for kind, ir in segments:
        if kind == "settle":
            sets.append({entry[0] for entry in ir.settle_ops})
        else:
            sets.append({sample[0] for sample in ir.samples})
    return sets


class FusionPlan:
    """What :func:`repro.sim.compiled._generate` splices in."""

    __slots__ = ("prelude", "entry", "dispatch", "summary")

    def __init__(self) -> None:
        self.prelude: List[str] = []   # module-level (per-_make) defs
        self.entry: List[str] = []     # per-_run-call defs
        self.dispatch: List[Tuple[int, str]] = []  # inside the main loop
        self.summary: Dict[str, object] = {}


def build_fusion(*, state_ir, names, sid, static_target, dynamic_fns,
                 statuses, instrumented, n_states,
                 profiled=False) -> Optional[FusionPlan]:
    """Detect traces and render the fused dispatch blocks.

    Returns ``None`` when nothing fuses (the generated source is then
    identical to the plain compiled kernel).

    With ``profiled``, each trace body also accumulates its wall time
    and cycle count into its two ``pw`` slots (``n_states + 2j`` /
    ``n_states + 2j + 1``) — one clock read per trace entry and exit,
    so the hot fused iterations stay instrumentation-free.
    """
    pinned = [ir.name for ir in state_ir if ir.flip is not None]
    traces = _find_traces(names, sid, static_target, dynamic_fns, statuses,
                          pinned)
    if not traces:
        return None

    plan = FusionPlan()
    trace_summaries: List[dict] = []
    ir_of = {ir.name: ir for ir in state_ir}

    def render(segments, records, mode, **options) -> List[tuple]:
        return _render_segments(segments, records, mode=mode,
                                instrumented=instrumented,
                                n_states=n_states, **options)

    def plain_settle(state_index: int, base: int) -> List[Tuple[int, str]]:
        return _render(render([("settle", state_ir[state_index])], [None],
                              "plain"), base)

    for j, (kind, chain, extra) in enumerate(traces):
        chain_idx = [sid[name] for name in chain]
        span = len(chain)
        guard_states = ", ".join(str(index) for index in chain_idx)
        plan.prelude.append(f"_ts{j} = frozenset(({guard_states},))")
        plan.entry.append(f"_ok{j} = stop.isdisjoint(_ts{j})")
        head_idx = chain_idx[0]
        body: List[Tuple[int, str]] = []

        if kind == "loop":
            header = chain[0]
            d_name = chain[-1]
            d_idx = sid[d_name]
            # the loop-continuation test: with the status combinations
            # that re-enter the header enumerated, the per-iteration
            # transition call + state-name compare collapses to an int
            # test on snapshotted status values; _e is reconstructed
            # once at trace exit
            combos = _guard_combos(dynamic_fns[d_idx], statuses, header)
            guarded = combos is not None
            status_names = [name for name, _ in statuses]
            if not guarded:
                guard = f"_e == {header!r}"
            elif not statuses:
                guard = "True"
            else:
                # prefer a separable guard: when the continue-set is a
                # product of per-status value sets, don't-care statuses
                # drop out and the common case is one int compare
                axis = [sorted({combo[k] for combo in combos})
                        for k in range(len(statuses))]
                size = 1
                for values in axis:
                    size *= len(values)
                separable = size == len(combos) and \
                    set(itertools.product(*axis)) == set(combos)
                if separable:
                    terms = []
                    for k, (values, (_n, width)) in enumerate(
                            zip(axis, statuses)):
                        if len(values) == (1 << width):
                            continue  # don't-care
                        if len(values) == 1:
                            terms.append(f"_g{k} == {values[0]}")
                        else:
                            items = ", ".join(map(str, values))
                            plan.prelude.append(
                                f"_hs{j}x{k} = frozenset(({items},))")
                            terms.append(f"_g{k} in _hs{j}x{k}")
                    guard = " and ".join(terms) if terms else "True"
                else:
                    tuples = ", ".join(repr(combo) for combo in combos)
                    plan.prelude.append(f"_hs{j} = frozenset(({tuples},))")
                    snap = ", ".join(f"_g{k}"
                                     for k in range(len(statuses)))
                    guard = f"({snap}) in _hs{j}"

            # comb pass-through forwarding: body consumers read roots
            # directly; dropped copies are replayed once at trace exit
            dropped, resolved = _copy_aliases(chain, ir_of)
            if resolved:
                render_ir = {name: _substitute_ir(ir_of[name], resolved,
                                                  dropped)
                             for name in set(chain)}
            else:
                render_ir = ir_of
            repair = [(out, "{0}", (root,))
                      for out, root in sorted(resolved.items())]

            # peel: one full iteration from an all-dirty entry; steady
            # body: union of per-pass emissions to a fixed point
            # (analysis always walks the original IR — dropped copies
            # must keep marking their outputs written)
            body_segs: List[tuple] = []
            body_render: List[tuple] = []
            for name in chain:
                body_segs.append(("settle", ir_of[name]))
                body_segs.append(("edge", ir_of[name]))
                body_render.append(("settle", render_ir[name]))
                body_render.append(("edge", render_ir[name]))
            peel_segs = body_segs[1:]  # entry invariant: header settled
            peel_render = body_render[1:]
            clock = _Clock()
            peel_rec = _walk(clock, peel_segs)
            unions: List[set] = [set() for _ in body_segs]
            passes = 0
            converged = False
            for passes in range(1, _MAX_BODY_PASSES + 1):
                grew = False
                for union, rec in zip(unions, _walk(clock, body_segs)):
                    if not rec <= union:
                        union |= rec
                        grew = True
                if not grew:
                    converged = True
                    break
            if not converged:
                unions = _full_sets(body_segs)

            accounting = [f"n += {span} * _i"]
            accounting += [f"counts[{index}] += _i" for index in chain_idx]
            if profiled:
                accounting.append(
                    f"pw[{n_states + 2 * j}] += _pc() - _pt")
                accounting.append(
                    f"pw[{n_states + 2 * j + 1}] += {span} * _i")
            if span > 1:
                accounting.append(f"_nt += {span - 1} * _i")
            if instrumented:
                for a, b in zip(chain_idx, chain_idx[1:]):
                    accounting.append(f"tc[{a * n_states + b}] += _i")
            # guarded loops defer the dynamic-edge tallies: of the _i
            # completed iterations every one but the last re-entered the
            # header (the last is settled by the reconstructed _e below);
            # on an exception the in-flight iteration is the one that
            # left, so all _i completed ones re-entered
            dyn_except: List[str] = []
            dyn_normal: List[str] = []
            if guarded:
                if header != d_name:
                    dyn_except.append("_nt += _i")
                    dyn_normal.append("_nt += _i - 1")
                if instrumented:
                    flat = d_idx * n_states + head_idx
                    dyn_except.append(f"tc[{flat}] += _i")
                    dyn_normal.append(f"tc[{flat}] += _i - 1")

            body.append((0, f"if s == {head_idx} and _ok{j} "
                            f"and n + {span} <= max_cycles:"))
            if profiled:
                body.append((1, "_pt = _pc()"))
            body.append((1, "_i = 0"))
            # n is constant inside the fused body (accounting is
            # hoisted), so the trip budget is a single division
            body.append((1, f"_lim = (max_cycles - n) // {span}"))
            body.append((1, "try:"))
            mode = "guard" if guarded else "fused"
            body.extend(_render(render(peel_render, peel_rec, mode), 2))
            body.append((2, "_i = 1"))
            full = render(body_render, unions, mode)
            # dynamic write-enables that are loop-invariant (their value
            # never assigned inside the steady body) select, once per
            # trace entry, a slim loop variant with those guarded write
            # blocks dropped — the hot read-phase iterations skip every
            # dead `if we:` test
            we_tokens = {we for name in set(chain)
                         for _key, _stmt, we in render_ir[name].sram_writes
                         if we is not None}
            invariant = sorted(we_tokens - {stmt[0] for stmt in full})
            slim = render(body_render, unions, mode,
                          drop_we=frozenset(invariant)) if invariant else None
            # copy propagation: register rename chains re-executed on
            # every iteration defer until loop exit (the slim variant's
            # dropped write blocks assign no locals, so both variants
            # must agree on the surviving pendings to share one repair)
            eliminated = 0
            exit_stores: List[tuple] = []
            opt_full = _propagate_copies(full)
            if opt_full is not None:
                if slim is None:
                    eliminated = len(full) - len(opt_full[0])
                    full, exit_stores = opt_full
                else:
                    opt_slim = _propagate_copies(slim)
                    if opt_slim is not None and opt_slim[1] == opt_full[1]:
                        eliminated = len(full) - len(opt_full[0])
                        full, exit_stores = opt_full
                        slim = opt_slim[0]
            repair = exit_stores + repair
            if invariant:
                body.append((2, f"if {' or '.join(invariant)}:"))
                body.append((3, f"while {guard} and _i < _lim:"))
                body.extend(_render(full, 4))
                body.append((4, "_i += 1"))
                body.append((2, "else:"))
                body.append((3, f"while {guard} and _i < _lim:"))
                body.extend(_render(slim, 4))
                body.append((4, "_i += 1"))
            else:
                body.append((2, f"while {guard} and _i < _lim:"))
                body.extend(_render(full, 3))
                body.append((3, "_i += 1"))
            # an emitted op may raise (strict divider, OOB write); the
            # completed-iteration accounting must land before unwinding,
            # and forwarded locals must be repaired on every way out
            body.append((1, "except BaseException:"))
            body.extend(_render(repair, 2))
            body.extend((2, text) for text in accounting + dyn_except)
            body.append((2, "raise"))
            body.extend(_render(repair, 1))
            body.extend((1, text) for text in accounting + dyn_normal)
            if guarded:
                env = ", ".join(f"{name!r}: _g{k}"
                                for k, name in enumerate(status_names))
                body.append((1, f"_e = _t{d_idx}({{{env}}})"))
                body.append((1, f"if _e != {d_name!r}:"))
                body.append((2, "_nt += 1"))
                if instrumented:
                    body.append(
                        (1, f"tc[{d_idx * n_states} + _sid[_e]] += 1"))
            exits = sorted(extra - {header}, key=sid.__getitem__)
            body.append((1, f"if _e != {header!r}:"))
            body.append((2, "s = _sid[_e]"))
            if len(exits) == 1:
                body.extend(plain_settle(sid[exits[0]], 2))
            elif exits:
                for position, exit_name in enumerate(exits[:-1]):
                    opener = "if" if position == 0 else "elif"
                    body.append((2, f"{opener} s == {sid[exit_name]}:"))
                    body.extend(plain_settle(sid[exit_name], 3))
                body.append((2, "else:"))
                body.extend(plain_settle(sid[exits[-1]], 3))
            body.append((1, "else:"))
            body.append((2, f"s = {head_idx}"))
            body.extend(plain_settle(head_idx, 2))
            body.append((1, "continue"))
            trace_summaries.append({
                "kind": "loop", "states": list(chain),
                "exits": [name for name in exits],
                "cycles_per_iteration": span, "body_passes": passes,
                "converged": converged, "guarded": guarded,
                "forwarded_copies": len(resolved),
                "eliminated_stores": eliminated,
            })
        else:  # linear run
            exit_name = extra
            exit_idx = sid[exit_name]
            segs: List[tuple] = []
            for position, name in enumerate(chain):
                if position > 0:
                    segs.append(("settle", ir_of[name]))
                segs.append(("edge", ir_of[name]))
            segs.append(("settle", ir_of[exit_name]))
            record = _walk(_Clock(), segs)

            body.append((0, f"if s == {head_idx} and _ok{j} "
                            f"and n + {span} <= max_cycles:"))
            if profiled:
                body.append((1, "_pt = _pc()"))
            body.extend(_render(render(segs, record, "fused"), 1))
            body.append((1, f"n += {span}"))
            for index in chain_idx:
                body.append((1, f"counts[{index}] += 1"))
            if profiled:
                body.append((1, f"pw[{n_states + 2 * j}] += "
                                f"_pc() - _pt"))
                body.append((1, f"pw[{n_states + 2 * j + 1}] += {span}"))
            body.append((1, f"_nt += {span}"))
            if instrumented:
                edges = list(zip(chain_idx, chain_idx[1:] + [exit_idx]))
                for a, b in edges:
                    body.append((1, f"tc[{a * n_states + b}] += 1"))
            body.append((1, f"s = {exit_idx}"))
            body.append((1, "continue"))
            trace_summaries.append({
                "kind": "line", "states": list(chain), "exit": exit_name,
                "cycles": span,
            })

        plan.dispatch.extend(body)

    plan.summary = {
        "traces": trace_summaries,
        "n_traces": len(traces),
        "fused_states": sum(len(chain) for _, chain, _ in traces),
        "n_states": n_states,
    }
    return plan


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------
class TracedSimulator(CompiledSimulator):
    """Compiled backend + hot-path trace fusion (``--backend=traced``).

    Inherits every safety property of :class:`CompiledSimulator`: the
    same conservative fallback to the event kernel, the same entry/exit
    Signal sync, the same coverage instrumentation path (fused traces
    are regenerated with transition tallies, not abandoned).  Designs
    with no fusable traces run exactly the compiled kernel.
    """

    _kernel_kind = "traced"

    def __init__(self, name: str = "traced-sim", **kwargs) -> None:
        super().__init__(name, **kwargs)

    def fusion_report(self) -> Optional[dict]:
        """The fusion summary for the current program (None when the
        design fell back or nothing fused)."""
        program = self._ensure_program()
        if program is None:
            return None
        return program.fusion
