"""Regenerate ``reference.json``: the exact simulated counts of every
member of the benchmark's input pools.

The counts come from the program's own entry points (``verify_design``,
``inject.run_campaign``, ``core.faults.run_campaign``) on one kernel, and
the benchmark checks every kernel it runs against them.  A fault has one
verdict, whichever kernel classifies it: the event kernel's, the
reference simulator's.  Every fault on which the batched kernel
disagrees with it is printed, and the benchmark counts it as failed.  So
is every fault on which the compiled kernel disagrees; those faults are
why the benchmark's fault campaign leaves the compiled kernel out.

    PYTHONPATH=src python3 layerbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def _counts(result) -> dict:
    assert result.passed, result.summary()
    return {"cycles": result.cycles,
            "reconfigurations": result.reconfigurations}


def regress_cold() -> dict:
    from repro.core.verification import verify_design
    import catalog

    out = {}
    for ident in catalog.distinct_structures():
        case, design = catalog.compile_structure(
            *catalog.parse_structure(ident))
        out[ident] = _counts(verify_design(
            design, case.func, case.inputs(catalog.COLD_STIMULUS),
            backend="event"))
    return out


def per_seed(sizes: dict, seeds: int) -> dict:
    from repro.apps.registry import suite_case
    from repro.core.verification import verify_design
    import catalog

    out = {}
    for app in catalog.APPS:
        case = suite_case(app, **sizes[app])
        design = case.compile()
        out[app] = [_counts(verify_design(design, case.func,
                                          case.inputs(seed),
                                          backend="compiled"))
                    for seed in range(seeds)]
    return out


def fault_campaign() -> dict:
    from repro.apps.registry import suite_case
    from repro.core import faults as seed_faults
    from repro.inject import run_campaign
    import catalog
    from workloads import inject_pool, mutant_pool

    inject, mutants = {}, {}
    for app in catalog.INJECT_APPS:
        case = suite_case(app)
        design = case.compile()
        inputs = case.inputs(catalog.FAULT_STIMULUS)
        pool = inject_pool(design)
        verdicts = {}
        for backend, jobs in (("event", 2), ("compiled", 2),
                              ("batched", 1)):
            report = run_campaign(design, case.func, pool, inputs,
                                  app=app, backend=backend, jobs=jobs,
                                  hang_factor=catalog.INJECT_HANG_FACTOR)
            assert len(report.results) == len(pool)
            verdicts[backend] = {result.fault.fault_id:
                                 [result.verdict, result.cycles]
                                 for result in report.results}
        inject[app] = verdicts["event"]
        for backend in ("compiled", "batched"):
            for fault_id, got in verdicts[backend].items():
                if got != inject[app][fault_id]:
                    print(f"  {app} {fault_id}: {backend} {got}, "
                          f"event {inject[app][fault_id]}")
    for app in catalog.MUTANT_APPS:
        case = suite_case(app)
        design = case.compile()
        pool = mutant_pool(design)
        result = seed_faults.run_campaign(
            design, case.func, case.inputs(catalog.FAULT_STIMULUS),
            faults=pool, max_cycles=catalog.MUTANT_MAX_CYCLES)
        verdicts = {v.fault.describe(): v.verdict for v in result.verdicts}
        assert len(verdicts) == len(pool), f"{app}: mutant labels collide"
        mutants[app] = verdicts
    return {"inject": inject, "mutants": mutants}


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        os.environ["REPRO_KERNEL_CACHE"] = scratch
        import catalog

        sections = {
            "regress-cold": regress_cold,
            "soak-warm": lambda: per_seed(catalog.TABLE1_SIZES,
                                          catalog.SOAK_SEEDS),
            "serve-open": lambda: per_seed(catalog.SERVE_SIZES,
                                           catalog.SERVE_SEEDS),
            "fault-campaign": fault_campaign,
        }
        wanted = sys.argv[1:] or list(sections)
        reference = (json.loads(catalog.REFERENCE.read_text())
                     if catalog.REFERENCE.exists() else {})
        for name in wanted:
            print(f"computing {name} ...", flush=True)
            reference[name] = sections[name]()
            catalog.REFERENCE.write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
