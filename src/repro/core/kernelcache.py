"""Persistent codegen cache: generated kernels keyed by design structure.

The compiled/traced simulation backends and the generated-FSM behaviour
pay a per-elaboration code-generation and ``compile()`` cost (tens of
milliseconds on the larger benchmarks).  That cost is pure function of
the *structure* being compiled, so this module caches the generated
source and its marshalled bytecode on disk, keyed by a structural hash
of (datapath, FSM, backend options, coverage flag).  Suite fork-workers,
repeated ``flow`` invocations and fuzz-corpus replays then skip codegen
entirely and ``exec`` the cached code object.

Two layers:

* an in-process memo (reconfiguration loops re-elaborate the same
  configuration many times within one run);
* a disk store under ``$REPRO_KERNEL_CACHE`` (default
  ``~/.cache/repro-kernels``), shared across processes.  Set
  ``REPRO_KERNEL_CACHE=off`` to keep the cache memory-only.

Entries are self-validating: each payload records the cache schema
version and the interpreter's bytecode magic, so a cache directory
shared across Python versions or library upgrades degrades to misses,
never to wrong code.  The disk layer is the
:class:`~repro.core.cache.ContentStore` the artifact cache also uses:
atomic writes, corruption as a miss, a tmp sweep on ``clear``.
"""

from __future__ import annotations

import base64
import hashlib
import importlib.util
import marshal
import os
from pathlib import Path
from types import CodeType
from typing import Dict, Optional, Tuple

from .cache import ContentStore

__all__ = ["KernelCache", "default_cache", "set_default_cache",
           "digest_parts", "datapath_digest", "fsm_digest",
           "batch_group_key"]

#: bump when the payload schema changes
_SCHEMA_VERSION = 1

#: interpreter bytecode magic, base64 for JSON transport
_MAGIC = base64.b64encode(importlib.util.MAGIC_NUMBER).decode("ascii")

#: what every disk entry must carry to be loaded
_STAMP = {"v": _SCHEMA_VERSION, "magic": _MAGIC}


# ----------------------------------------------------------------------
# Structural digests
# ----------------------------------------------------------------------
def digest_parts(*parts) -> str:
    """One stable hex digest over any mix of strings/ints/bools."""
    h = hashlib.sha256()
    for part in parts:
        h.update(str(part).encode("utf-8", "replace"))
        h.update(b"\x1e")
    return h.hexdigest()


def _memo_digest(model, records) -> str:
    """SHA-256 over the field tuples ``records(model)`` yields, memoised
    on the model object (``_digest_memo``; its mutators clear it)."""
    memo = getattr(model, "_digest_memo", None)
    if memo is not None:
        return memo
    h = hashlib.sha256()
    for fields in records(model):
        h.update("\x1f".join(map(str, fields)).encode("utf-8", "replace"))
        h.update(b"\x1e")
    digest = h.hexdigest()
    try:
        model._digest_memo = digest
    except AttributeError:  # duck-typed stand-ins without a dict
        pass
    return digest


def _datapath_records(datapath):
    yield "dp", datapath.name, datapath.width
    for comp in datapath.components.values():
        yield ("comp", comp.name, comp.type, comp.width,
               sorted(comp.params.items()))
    for net in datapath.nets.values():
        yield ("net", net.name, net.width, net.source,
               ";".join(map(str, net.sinks)))
    for line in datapath.controls.values():
        yield "ctl", line.name, line.width, ";".join(map(str, line.targets))
    for status in datapath.statuses.values():
        yield "status", status.name, status.source
    for mem in datapath.memories.values():
        yield "mem", mem.name, mem.width, mem.depth, mem.init, mem.role


def _fsm_records(fsm):
    yield ("fsm", fsm.name, fsm.reset_state, sorted(fsm.final_states),
           list(fsm.inputs))
    for decl in fsm.outputs.values():
        yield "out", decl.name, decl.width, decl.default
    for state in fsm.states.values():
        yield "state", state.name, sorted(state.assigns.items())
        for transition in state.transitions:
            yield "tr", transition.condition.to_python(), transition.target


def datapath_digest(datapath) -> str:
    """Hash everything about a datapath that code generation can see.

    Memoised on the model object: re-elaborating the same design — the
    benchmark harness and the parallel suite runner both do, many
    times — must not re-walk a few hundred declarations per run.
    """
    return _memo_digest(datapath, _datapath_records)


def fsm_digest(fsm) -> str:
    """Hash the FSM semantics: vectors, guards, targets, finals.

    Memoised like :func:`datapath_digest`; ``Fsm`` mutators and the
    ``State`` helpers clear the memo through the state's owner link.
    """
    return _memo_digest(fsm, _fsm_records)


def batch_group_key(datapath, fsm, fsm_mode: str = "generated") -> str:
    """Public grouping key: runs with equal keys share generated code.

    Two (datapath, FSM) pairs with the same key elaborate to the same
    kernel, so their stimulus sets can advance through **one** batch
    (see :mod:`repro.sim.batched`) — this is how the fuzz harness folds
    a wave's structurally-identical programs into shared batches.  The
    key is derived from the same memoised structural digests the kernel
    cache itself uses, so any model mutation that would invalidate the
    cached kernel (the mutators clear ``_digest_memo``) changes the
    group key too — stale grouping is impossible by construction.
    """
    return digest_parts("batch-group-v1", datapath_digest(datapath),
                        fsm_digest(fsm), fsm_mode)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
class KernelCache:
    """Two-layer (memory + disk) store for generated-code payloads.

    A payload is a JSON-serialisable dict; the associated code object is
    transported as marshalled bytes under the reserved ``"code"`` key.
    ``get`` returns ``(payload, code)`` and never raises — corruption,
    version skew and I/O errors are all misses.  The disk layer is a
    :class:`~repro.core.cache.ContentStore` with one namespace per kind.
    """

    def __init__(self, root: Optional[Path] = None) -> None:
        #: ``None`` root means memory-only
        self.root = Path(root) if root is not None else None
        self._disk = (ContentStore(self.root, _STAMP)
                      if self.root is not None else None)
        self._memory: Dict[Tuple[str, str],
                           Tuple[dict, Optional[CodeType]]] = {}
        self.memory_hits = 0
        self.disk_hits = 0
        self.misses = 0
        self.stores = 0

    @property
    def errors(self) -> int:
        """Corrupt entries read plus failed disk writes."""
        return self._disk.errors if self._disk is not None else 0

    # ------------------------------------------------------------------
    def get(self, kind: str, key: str
            ) -> Tuple[Optional[dict], Optional[CodeType]]:
        cached = self._memory.get((kind, key))
        if cached is not None:
            self.memory_hits += 1
            return cached
        payload = (self._disk.read(f"{kind}/{key}")
                   if self._disk is not None else None)
        if payload is None:
            self.misses += 1
            return None, None
        try:
            blob = payload.pop("code", None)
            code = (marshal.loads(base64.b64decode(blob))
                    if blob is not None else None)
        except Exception:  # noqa: BLE001 - any corruption is a miss
            self._disk.errors += 1
            self.misses += 1
            return None, None
        self.disk_hits += 1
        self._memory[(kind, key)] = (payload, code)
        return payload, code

    def put(self, kind: str, key: str, payload: dict,
            code: Optional[CodeType] = None) -> None:
        payload = {**payload, **_STAMP}
        self._memory[(kind, key)] = (payload, code)
        self.stores += 1
        if self._disk is None:
            return
        on_disk = dict(payload)
        if code is not None:
            on_disk["code"] = base64.b64encode(
                marshal.dumps(code)).decode("ascii")
        # an unwritable cache dir degrades to memory-only for this entry
        self._disk.write(f"{kind}/{key}", on_disk)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop the memory layer and every on-disk entry, including
        ``*.tmp`` staging files orphaned by writers killed mid-
        :func:`os.replace` (they are invisible to lookups but would
        otherwise accumulate forever)."""
        self._memory.clear()
        if self._disk is not None:
            self._disk.clear()

    def summary(self) -> Dict[str, object]:
        return {
            "root": str(self.root) if self.root is not None else None,
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
            "stores": self.stores,
            "errors": self.errors,
        }

    def describe(self) -> str:
        info = self.summary()
        where = info["root"] or "memory-only"
        return (f"kernel cache [{where}]: "
                f"{info['memory_hits']} memory hit(s), "
                f"{info['disk_hits']} disk hit(s), "
                f"{info['misses']} miss(es), {info['stores']} store(s)")


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------
_default: Optional[KernelCache] = None


def _default_root() -> Optional[Path]:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured is not None:
        if configured.strip().lower() in ("off", "0", "none", ""):
            return None
        return Path(configured)
    return Path.home() / ".cache" / "repro-kernels"


def default_cache() -> KernelCache:
    """The process-wide cache (created on first use; fork-safe, since
    children inherit the memory layer and share the disk layer)."""
    global _default
    if _default is None:
        _default = KernelCache(_default_root())
    return _default


def set_default_cache(cache: Optional[KernelCache]) -> Optional[KernelCache]:
    """Swap the process-wide cache (tests use this to isolate); returns
    the previous one."""
    global _default
    previous = _default
    _default = cache
    return previous
