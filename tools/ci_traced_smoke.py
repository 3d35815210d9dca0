"""CI bench-smoke for the trace-fusing kernel.

Three gates, cheap enough for every push:

1. **Differential** — every registered app, compiled vs traced, must
   produce identical cycle counts and memory contents.  On any
   mismatch the generated (fused) kernel source for the offending
   design is written under ``fused-kernels/`` so the CI artifact
   upload captures exactly the code that diverged.
2. **Fault** — one stuck-at on an fdct1 output-adjacent net, armed in
   both kernels: identical cycles and memories, and the traced kernel
   keeps its fused traces.  On a mismatch both kernels' sources are
   dumped under ``fused-kernels/``.
3. **Performance** — on fdct1 (the acceptance anchor) the traced
   kernel must be at least as fast as the compiled kernel,
   min-over-repeats of interleaved runs so host noise cannot flip the
   comparison.  Locally the ratio is ~2x; the gate only asserts >= 1.

Exit status 0 = every gate passes.  Run it twice against one
``REPRO_KERNEL_CACHE`` directory and the second run checks kernels
rebound from the cache instead of freshly generated ones.
"""

import sys
from pathlib import Path

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images, verify_design
from repro.inject import FaultDescriptor, attach_fault, output_adjacent_nets
from repro.rtg import ReconfigurationContext, RtgExecutor

SMALL_SIZES = {
    "fdct1": {"pixels": 64},
    "fdct2": {"pixels": 64},
    "idct": {"pixels": 64},
    "hamming": {"n_words": 16},
    "fir": {"n_out": 16, "taps": 4},
    "matmul": {"n": 4},
    "threshold": {"n_pixels": 32},
    "popcount": {"n_words": 16},
}

FAULT_CASE = "fdct1"

PERF_CASE = "fdct1"
PERF_SIZE = {"pixels": 8192}
PERF_REPEATS = 3

DUMP_DIR = Path("fused-kernels")


def _execute(design, inputs, backend, sims, fault=None):
    images = prepare_images(design, inputs)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    executor = RtgExecutor(design.rtg, context, backend=backend)

    def configure(sim_design):
        if fault is not None:
            attach_fault(sim_design, fault)
        sims.append(sim_design.sim)

    executor.on_configure = configure
    result = executor.run()
    memories = {name: tuple(context.memory(name).words())
                for name in context.memories}
    return result.total_cycles, memories


def _dump_sources(name, sims, backend="traced"):
    DUMP_DIR.mkdir(exist_ok=True)
    for index, sim in enumerate(sims):
        program = getattr(sim, "_program", None)
        source = getattr(program, "source", None)
        if source is None:
            source = f"# no generated program (fallback: " \
                     f"{getattr(sim, 'fallback_reason', None)})\n"
        path = DUMP_DIR / f"{name}_cfg{index}_{backend}.py"
        path.write_text(source)
        print(f"  {backend} kernel source -> {path}")


def differential_gate():
    failed = []
    for name in sorted(CASE_BUILDERS):
        case = suite_case(name, **SMALL_SIZES.get(name, {}))
        design = case.compile()
        inputs = case.inputs(0)
        compiled = _execute(design, inputs, "compiled", [])
        traced_sims = []
        traced = _execute(design, inputs, "traced", traced_sims)
        if compiled == traced:
            print(f"[ok]   {name}: {compiled[0]} cycles, "
                  f"memories identical")
            continue
        failed.append(name)
        print(f"[FAIL] {name}: compiled/traced diverge "
              f"(cycles {compiled[0]} vs {traced[0]})")
        _dump_sources(name, traced_sims)
    return failed


def fault_gate():
    case = suite_case(FAULT_CASE, **SMALL_SIZES[FAULT_CASE])
    design = case.compile()
    inputs = case.inputs(0)
    fault = FaultDescriptor(fault_id="smoke", kind="stuck",
                            target=output_adjacent_nets(design)[0],
                            bit=0, stuck_value=1)
    compiled_sims, traced_sims = [], []
    compiled = _execute(design, inputs, "compiled", compiled_sims, fault)
    traced = _execute(design, inputs, "traced", traced_sims, fault)
    fused = all(sim.fusion_report() is not None for sim in traced_sims)
    if compiled == traced and fused:
        print(f"[ok]   {FAULT_CASE} {fault.describe()}: {compiled[0]} "
              f"cycles, memories identical, fusion kept")
        return True
    print(f"[FAIL] {FAULT_CASE} {fault.describe()}: cycles {compiled[0]} "
          f"vs {traced[0]}, memories "
          f"{'identical' if compiled[1] == traced[1] else 'differ'}, "
          f"fusion {'kept' if fused else 'lost'}")
    _dump_sources(f"{FAULT_CASE}_stuck", compiled_sims, "compiled")
    _dump_sources(f"{FAULT_CASE}_stuck", traced_sims, "traced")
    return False


def perf_gate():
    case = suite_case(PERF_CASE, **PERF_SIZE)
    design = case.compile()
    inputs = case.inputs(0)
    best = {"compiled": None, "traced": None}
    for _ in range(PERF_REPEATS):
        for backend in ("compiled", "traced"):
            result = verify_design(design, case.func, inputs,
                                   backend=backend)
            assert result.passed, result.summary()
            seconds = result.simulation_seconds
            if best[backend] is None or seconds < best[backend]:
                best[backend] = seconds
    ratio = best["compiled"] / max(best["traced"], 1e-9)
    print(f"perf: {PERF_CASE} compiled {best['compiled'] * 1000:.1f}ms, "
          f"traced {best['traced'] * 1000:.1f}ms "
          f"(traced is x{ratio:.2f} faster; gate: >= 1)")
    return ratio >= 1.0


def main() -> int:
    failed = differential_gate()
    if failed:
        print(f"differential gate FAILED: {failed}")
        return 1
    if not fault_gate():
        print(f"fault gate FAILED on {FAULT_CASE}")
        return 1
    if not perf_gate():
        print("perf gate FAILED: traced slower than compiled on "
              f"{PERF_CASE}")
        return 1
    print("traced smoke: all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
