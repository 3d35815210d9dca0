"""The benchmark's own span recorder.

Spans are taken around calls into the program's public functions, so the
program itself is unchanged.  A disabled tracer hands out one shared
no-op span, which keeps the untraced runs free of recording cost.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Dict, List


class _NullSpan:
    name = ""

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _NullSpan()


class Span:
    """One timed call; ``name`` may be changed before the span closes
    (a kernel lookup only learns whether it was a hit afterwards)."""

    __slots__ = ("tracer", "name", "start", "children")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.start = 0.0
        self.children = 0.0

    def __enter__(self) -> "Span":
        self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        duration = time.perf_counter() - self.start
        stack = self.tracer._stack
        stack.pop()
        if stack:
            stack[-1].children += duration
        self.tracer.self_seconds[self.name] += duration - self.children


class Tracer:
    """Collects per-layer self time (span duration minus the part its
    child spans cover) and counts recorded at the same boundaries."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._stack: List[Span] = []
        #: per span name, its duration minus what its children cover
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)

    def span(self, name: str):
        return Span(self, name) if self.enabled else _NULL

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            self.counts[name] += value


#: the tail percentile is never taken above this one: on a shared
#: 2-core host the few slowest samples are set by host stalls, and the
#: same seeds gave serve-open p97.8 values from 80 to 151 ms
TAIL_CAP = 0.95


def tail(samples):
    """The highest percentile with at least ten samples beyond it, but
    no higher than ``TAIL_CAP``, as (value, percentile, sample count)."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return ordered[-1], 100.0, count
    index = min(count - 11, int(count * TAIL_CAP) - 1)
    return ordered[index], 100.0 * (index + 1) / count, count
