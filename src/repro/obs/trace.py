"""Hierarchical timing spans with a multi-process JSONL recorder.

A :class:`Span` measures one phase of the pipeline (a compile, a
configuration simulation, a fuzz iteration) with monotonic timing and
arbitrary key/value attributes.  Completed spans are appended to a JSONL
*events file*, one JSON object per line, by whichever process finished
them:

* the events file is opened ``O_APPEND``, and each span is written with
  a single ``write`` call, so the fork-based worker pools
  (:meth:`repro.core.TestSuite.run`, fuzz campaigns) can share the
  recorder they inherited from the parent — every worker's spans land in
  the same file tagged with the worker's pid;
* timestamps come from ``time.monotonic_ns()``, which on Linux is a
  system-wide clock, so parent and worker spans share one timeline.

:meth:`TraceRecorder.export_chrome` (or the module-level
:func:`export_chrome_trace`) converts the events file into Chrome
``trace_event`` JSON that chrome://tracing and https://ui.perfetto.dev
open directly: one track per process/thread, spans nested by time.

Spans are the only clock: every span reads ``time.monotonic_ns()`` at
start and end and exposes the elapsed time as :attr:`Span.seconds`,
whether or not a recorder is installed, so result fields, histograms
and ledger rows take their durations from the span that surrounds the
work.  The module keeps one globally installed recorder; with none
installed a span writes nothing and mints no ids.

Spans carry identity: every recorded span has a process-unique
``span_id``, belongs to a ``trace_id`` (inherited from the enclosing
span, or freshly minted for a root) and names its ``parent_id``.  The
triple rides in the event's ``args``, so a Chrome/Perfetto trace can be
re-stitched per logical operation even when its spans landed from
different processes.  :func:`current_context` / :class:`trace_context`
move that identity across process boundaries: serialize the context
dict onto a wire message, adopt it on the far side, and spans opened
there become children of the originating span.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = ["Span", "TraceRecorder", "recording", "span", "event",
           "start_span", "active_recorder", "install", "uninstall",
           "export_chrome_trace", "new_trace_id", "current_context",
           "trace_context", "MAX_ATTR_CHARS"]

#: per-attribute payload cap: any single span attribute whose JSON
#: rendering exceeds this many characters is truncated before it is
#: written, and the span gains a ``"truncated": true`` marker.  A long
#: fuzz campaign attaches failure details (tracebacks, mismatch dumps)
#: to its spans; uncapped, a multi-hour run can inflate the events file
#: into a multi-hundred-MB trace no viewer will open.
MAX_ATTR_CHARS = 1024


def _clip_attrs(attrs: Dict[str, Any],
                limit: int = MAX_ATTR_CHARS) -> Dict[str, Any]:
    """Bound each attribute value's serialized size (keys are code-
    controlled and short; values may carry arbitrary runtime data)."""
    clipped: Optional[Dict[str, Any]] = None
    for key, value in attrs.items():
        try:
            rendered = json.dumps(value, default=str)
        except (TypeError, ValueError):
            rendered = json.dumps(str(value))
        if len(rendered) <= limit:
            continue
        if clipped is None:
            clipped = dict(attrs)
        text = rendered[:limit]
        clipped[key] = f"{text}… [{len(rendered) - limit} chars dropped]"
        clipped["truncated"] = True
    return attrs if clipped is None else clipped


# ----------------------------------------------------------------------
# Trace identity: span ids, trace ids, the per-thread context stack
# ----------------------------------------------------------------------
_SPAN_SEQ = itertools.count(1)
_CTX = threading.local()


def _ctx_stack() -> list:
    stack = getattr(_CTX, "stack", None)
    if stack is None:
        stack = []
        _CTX.stack = stack
    return stack


def _new_span_id() -> str:
    """Process-unique span id (pid-prefixed so forked workers never
    collide with the parent's counter they inherited)."""
    return f"{os.getpid():x}-{next(_SPAN_SEQ):x}"


def new_trace_id() -> str:
    """A fresh 64-bit trace id (one logical operation end to end)."""
    return os.urandom(8).hex()


def current_context() -> Optional[Dict[str, str]]:
    """The innermost live span as a wire-safe ``{"trace_id", "parent"}``
    dict, or ``None`` outside any span/adopted context."""
    stack = getattr(_CTX, "stack", None)
    if stack:
        trace_id, span_id = stack[-1]
        return {"trace_id": trace_id, "parent": span_id}
    return None


class trace_context:
    """Adopt a propagated context for a ``with`` block: spans opened
    inside become children of the remote parent.  A ``None`` or
    malformed context is a no-op, so receivers can pass whatever the
    wire carried without checking."""

    __slots__ = ("_entry",)

    def __init__(self, ctx: Optional[Mapping]) -> None:
        if isinstance(ctx, Mapping) and ctx.get("trace_id"):
            self._entry = (str(ctx["trace_id"]),
                           str(ctx.get("parent") or ""))
        else:
            self._entry = None

    def __enter__(self) -> "trace_context":
        if self._entry is not None:
            _ctx_stack().append(self._entry)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._entry is not None:
            _remove_entry(self._entry)
        return False


def _remove_entry(entry) -> None:
    """Drop one stack entry wherever it sits: long-lived spans close
    out of LIFO order (a job span outlives the submits queued after
    it), so a blind pop would corrupt unrelated parentage."""
    stack = getattr(_CTX, "stack", None)
    if not stack:
        return
    for position in range(len(stack) - 1, -1, -1):
        if stack[position] is entry:
            del stack[position]
            return


class Span:
    """One timed phase: context manager around a block of work.

    Every span times itself: :attr:`seconds` reads the elapsed time
    while the span is open and its duration once closed.  Only a span
    made while a recorder is installed mints ids, joins the context
    stack and is written out.

    Two lifecycles share this class.  ``with span(...)`` is *ambient*:
    the span joins the thread's context stack, so spans opened inside
    the block become its children.  :func:`start_span` is *detached*:
    the span takes its parent from the stack (or an explicit context)
    at start but never joins it, for operations that outlive the
    current call frame — close those with :meth:`finish`.
    """

    __slots__ = ("name", "category", "attrs", "_recorder", "_start_ns",
                 "_end_ns", "span_id", "trace_id", "parent_id", "_parent",
                 "_entry")

    def __init__(self, recorder: Optional["TraceRecorder"], name: str,
                 category: str, attrs: Dict[str, Any],
                 parent: Optional[Mapping] = None) -> None:
        self.name = name
        self.category = category
        self.attrs = attrs
        self._recorder = recorder
        self._start_ns: Optional[int] = None
        self._end_ns: Optional[int] = None
        self.span_id: Optional[str] = None
        self.trace_id: Optional[str] = None
        self.parent_id: Optional[str] = None
        self._parent = parent
        self._entry = None

    def set(self, key: str, value: Any) -> "Span":
        """Attach an attribute (shows up under ``args`` in the viewer)."""
        self.attrs[key] = value
        return self

    @property
    def seconds(self) -> float:
        """Elapsed seconds while open, the span's duration once closed
        (0.0 before it starts)."""
        if self._start_ns is None:
            return 0.0
        end_ns = self._end_ns if self._end_ns is not None \
            else time.monotonic_ns()
        return (end_ns - self._start_ns) / 1e9

    @property
    def context(self) -> Dict[str, str]:
        """Wire-safe context for children of this span (valid after the
        span has started)."""
        return {"trace_id": self.trace_id or "",
                "parent": self.span_id or ""}

    # -- lifecycle ------------------------------------------------------
    def _begin(self) -> None:
        self._start_ns = time.monotonic_ns()
        if self._recorder is None:
            return
        ctx = self._parent
        if not (isinstance(ctx, Mapping) and ctx.get("trace_id")):
            ctx = current_context()
        if ctx:
            self.trace_id = str(ctx["trace_id"])
            self.parent_id = str(ctx.get("parent") or "") or None
        else:
            self.trace_id = new_trace_id()
            self.parent_id = None
        self.span_id = _new_span_id()

    def _end(self, exc_type=None) -> None:
        self._end_ns = time.monotonic_ns()
        if self._recorder is None:
            return
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._recorder.record(self, self._end_ns)

    def start(self) -> "Span":
        """Begin a detached span (no stack entry); pair with finish()."""
        self._begin()
        return self

    def finish(self) -> None:
        """Close a detached span and record it."""
        self._end()

    def __enter__(self) -> "Span":
        self._begin()
        if self.span_id is not None:
            self._entry = (self.trace_id, self.span_id)
            _ctx_stack().append(self._entry)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._entry is not None:
            _remove_entry(self._entry)
            self._entry = None
        self._end(exc_type)
        return False


class TraceRecorder:
    """Appends completed spans to a JSONL events file.

    The recorder owns the file: constructing one truncates *path*.
    Forked children inherit the open descriptor and append alongside
    the parent.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._t0_ns = time.monotonic_ns()
        self._fd: Optional[int] = os.open(
            str(self.path),
            os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND,
            0o644,
        )

    # ------------------------------------------------------------------
    def record(self, span: Span, end_ns: int) -> None:
        """Write one completed span (called from Span.__exit__)."""
        start_ns = span._start_ns if span._start_ns is not None else end_ns
        args = dict(_clip_attrs(span.attrs))
        if span.span_id is not None:
            args["span_id"] = span.span_id
            args["trace_id"] = span.trace_id
            if span.parent_id:
                args["parent_id"] = span.parent_id
        self._write({
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": (start_ns - self._t0_ns) / 1000.0,
            "dur": max(end_ns - start_ns, 0) / 1000.0,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": args,
        })

    def instant(self, name: str, category: str = "repro",
                **attrs: Any) -> None:
        """Record a zero-duration marker event."""
        self._write({
            "name": name,
            "cat": category,
            "ph": "i",
            "s": "p",
            "ts": (time.monotonic_ns() - self._t0_ns) / 1000.0,
            "pid": os.getpid(),
            "tid": threading.get_ident() & 0x7FFFFFFF,
            "args": _clip_attrs(attrs),
        })

    def _write(self, payload: Dict[str, Any]) -> None:
        if self._fd is None:
            return
        line = json.dumps(payload, default=str) + "\n"
        data = line.encode("utf-8")
        # one write() per line + O_APPEND keeps concurrent writers from
        # interleaving partial lines (the exporter skips any stragglers)
        with self._lock:
            if self._fd is not None:
                os.write(self._fd, data)

    # ------------------------------------------------------------------
    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    def export_chrome(self, out_path: Union[str, Path]) -> int:
        """Convert the events file to Chrome trace JSON; returns #events."""
        return export_chrome_trace(self.path, out_path)

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def export_chrome_trace(events_path: Union[str, Path],
                        out_path: Union[str, Path]) -> int:
    """Wrap a JSONL events file into ``{"traceEvents": [...]}`` JSON.

    Lines that fail to parse (a torn write from a killed worker) are
    skipped rather than poisoning the whole trace.
    """
    events: List[Dict[str, Any]] = []
    try:
        text = Path(events_path).read_text()
    except OSError:
        text = ""
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            parsed = json.loads(line)
        except ValueError:
            continue
        if isinstance(parsed, dict):
            events.append(parsed)
    events.sort(key=lambda entry: entry.get("ts", 0.0))
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    out = Path(out_path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=1) + "\n")
    return len(events)


# ----------------------------------------------------------------------
# The globally installed recorder
# ----------------------------------------------------------------------
_ACTIVE: Optional[TraceRecorder] = None


def install(recorder: TraceRecorder) -> TraceRecorder:
    """Make *recorder* the process-wide span sink."""
    global _ACTIVE
    _ACTIVE = recorder
    return recorder


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_recorder() -> Optional[TraceRecorder]:
    return _ACTIVE


def span(name: str, category: str = "repro",
         parent: Optional[Mapping] = None, **attrs: Any):
    """A context-manager span; recorded only while a recorder is
    installed, timed always.

    ``parent`` overrides the ambient context with an explicit
    ``{"trace_id", "parent"}`` dict (e.g. one received over a wire).
    """
    return Span(_ACTIVE, name, category, attrs, parent=parent)


def start_span(name: str, category: str = "repro",
               parent: Optional[Mapping] = None, **attrs: Any):
    """Begin a *detached* span immediately; the caller owns its end.

    Detached spans measure operations that outlive the current call
    frame (a queued job between submit and reply): they resolve their
    parent now but never join the thread's context stack, and they are
    recorded when :meth:`Span.finish` is called.  Hand
    :attr:`Span.context` to children (or across a process boundary).
    """
    return Span(_ACTIVE, name, category, attrs, parent=parent).start()


def event(name: str, category: str = "repro", **attrs: Any) -> None:
    """An instant marker, dropped silently when not recording."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.instant(name, category, **attrs)


class recording:
    """Record spans for the duration of a ``with`` block::

        with recording("events.jsonl") as rec:
            ...  # span() calls are live here
        rec.export_chrome("trace.json")

    Installs a fresh :class:`TraceRecorder` globally on entry; on exit
    the recorder is uninstalled and closed (the events file remains for
    export).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.recorder = TraceRecorder(path)

    def __enter__(self) -> TraceRecorder:
        return install(self.recorder)

    def __exit__(self, exc_type, exc, tb) -> None:
        if _ACTIVE is self.recorder:
            uninstall()
        self.recorder.close()
