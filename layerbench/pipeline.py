"""Verification through the program's own entry points.

Every run verifies through ``verify_design`` or ``verify_design_batch``,
so the end-to-end figures time the program's verification path as it
is.  The traced run first calls :func:`instrument`, which wraps the
public functions that path calls in the benchmark's spans, each named
after the module it measures: ``stimulus`` (``prepare_images``),
``golden`` (``run_golden``), ``compare`` (``compare_images``), ``rtg``
(``compile_rtg``, ``RtgExecutor.run``, ``RtgBatchExecutor.run``),
``to_sim`` (``build_simulation``), ``kernel.codegen.<backend>`` or
``kernelcache.lookup`` (a first ``run_cycles(0)`` on each fresh
elaboration builds or fetches its kernel) and ``sim.<backend>``
(``SimDesign.run_to_done``, ``LaneBatch.run``).  What the entry points
do themselves lands in ``verification``.

The wrappers record only inside the benchmark's own verifications; the
fault engines, which call some of the same functions, are timed as a
whole.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Sequence

import repro.core.verification as verification
import repro.rtg.executor as executor
from repro.core.kernelcache import default_cache
from repro.core.verification import verify_design, verify_design_batch
from repro.sim.batched import LaneBatch
from repro.translate.to_sim import SimDesign, build_simulation


class _Scope:
    """Whether the wrappers record, and the kernel last elaborated."""

    inside = False
    backend = "event"
    tracer = None


_SCOPE = _Scope()


@contextmanager
def _verifying(tracer):
    _SCOPE.inside = tracer.enabled
    try:
        with tracer.span("verification"):
            yield
    finally:
        _SCOPE.inside = False


def verify(tracer, design, func, inputs, backend: str):
    """One ``verify_design`` call on *backend*."""
    with _verifying(tracer):
        result = verify_design(design, func, inputs, backend=backend)
    tracer.count("rtg.reconfigurations", result.reconfigurations)
    return result


def verify_batch(tracer, design, func, inputs_list: Sequence) -> list:
    """One ``verify_design_batch`` call; its per-stimulus results."""
    with _verifying(tracer):
        result = verify_design_batch(design, func, inputs_list)
    tracer.count("rtg.reconfigurations", result.reconfigurations)
    return result.lanes


def build_kernels(design, backends: Sequence[str]) -> None:
    """Fill the kernel cache for *design*: elaborate every configuration
    on every kernel and build its code, without simulating."""
    for backend in backends:
        for config in design.configurations:
            sim_design = build_simulation(config.datapath, config.fsm,
                                          backend=backend)
            sim_design.sim.run_cycles(0)
            sim_design.release()


def _wrap(owner, attr: str, name, after=None) -> None:
    """Replace ``owner.attr`` by a wrapper that, inside a verification,
    runs it in a span called *name* (or ``name(args, kwargs)``) and then
    calls ``after(result, args, kwargs)``."""
    original = getattr(owner, attr)
    tracer = _SCOPE.tracer

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not _SCOPE.inside:
            return original(*args, **kwargs)
        label = name(args, kwargs) if callable(name) else name
        with tracer.span(label):
            result = original(*args, **kwargs)
        if after is not None:
            after(result, args, kwargs)
        return result

    setattr(owner, attr, wrapper)


def instrument(tracer) -> None:
    """Wrap the verification path's public functions in *tracer*'s
    spans, for the rest of this interpreter."""
    _SCOPE.tracer = tracer

    def compared(result, args, kwargs):
        tracer.count("compare.words", args[0].depth)

    def elaborated(sim_design, args, kwargs):
        # the kernel is built (or fetched) on first use; do that here,
        # under a span named after what the kernel cache reports
        backend = kwargs.get("backend", "event")
        _SCOPE.backend = backend
        cache = default_cache()
        before = (cache.memory_hits, cache.disk_hits, cache.misses)
        with tracer.span("kernelcache.lookup") as span:
            sim_design.sim.run_cycles(0)
            if cache.misses != before[2]:
                span.name = f"kernel.codegen.{backend}"
        tracer.count("kernelcache.mem_hits", cache.memory_hits - before[0])
        tracer.count("kernelcache.disk_hits", cache.disk_hits - before[1])
        tracer.count("kernelcache.misses", cache.misses - before[2])

    def simulated(cycles, args, kwargs):
        tracer.count(f"sim.cycles.{_SCOPE.backend}", cycles)

    def lanes_simulated(report, args, kwargs):
        tracer.count("sim.cycles.batched", sum(report.cycles))

    _wrap(verification, "prepare_images", "stimulus")
    _wrap(verification, "run_golden", "golden")
    _wrap(verification, "compare_images", "compare", compared)
    _wrap(executor, "compile_rtg", "rtg")
    _wrap(executor.RtgExecutor, "run", "rtg")
    _wrap(executor.RtgBatchExecutor, "run", "rtg")
    _wrap(executor, "build_simulation", "to_sim", elaborated)
    _wrap(SimDesign, "run_to_done", lambda args, kwargs:
          f"sim.{_SCOPE.backend}", simulated)
    _wrap(LaneBatch, "run", "sim.batched", lanes_simulated)
