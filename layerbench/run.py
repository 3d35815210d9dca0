"""The repository's benchmark: one command, four workloads, every layer.

    python3 layerbench/run.py --workload regress-cold --seed 1 \\
        --seconds 20 --trace 0

Run from the repository root.  Each run starts fresh interpreters with
their own kernel-cache and artifact-cache directories under
``.layerbench/`` (removed afterwards), so no cache outside the run is
ever read.

``--trace 0`` measures the end-to-end metrics with tracing off and sets
up the workload several times to report the median set-up time.
``--trace 1`` runs the workload untraced for half the time, then runs
the same operations again with the benchmark's spans on, and reports the
per-layer self times and counts, the share of wall time the spans cover
and the tracing overhead.  Every verification is checked against the
golden run and every simulated count against ``reference.json``.  The
last line of standard output is one JSON object.

``layerbench/README.md`` says why each workload exists and which layer
metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import tail

HERE = Path(__file__).resolve().parent
WORKLOADS = ("regress-cold", "soak-warm", "serve-open", "fault-campaign")
#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: seconds the whole run may take, children included
RUN_BUDGET = 170

BACKENDS = ("compiled", "traced", "batched")


class ChildFailed(RuntimeError):
    pass


def spawn(args, workdir: Path, *, seconds: float, trace: int,
          max_ops=None, setup_only=False) -> dict:
    """Run one fresh worker interpreter and return its JSON report."""
    workdir.mkdir(parents=True)
    (workdir / "home").mkdir()
    env = dict(os.environ)
    env.pop("REPRO_LEDGER", None)
    env.update({
        "PYTHONPATH": os.pathsep.join(
            [str(Path.cwd() / "src")]
            + [p for p in [env.get("PYTHONPATH")] if p]),
        "REPRO_KERNEL_CACHE": str(workdir / "kernels"),
        "HOME": str(workdir / "home"),
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--workdir", str(workdir)]
    if max_ops is not None:
        command += ["--max-ops", str(max_ops)]
    if setup_only:
        command.append("--setup-only")
    command += ["--spawned", repr(time.time())]
    # its own process group, so a timeout also stops the serve daemon
    # and pool workers the worker started
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, stderr = proc.communicate(
            timeout=max(args.deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        stdout, stderr = None, None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if stdout is None:
        proc.communicate()
        raise ChildFailed(f"the run did not finish in {RUN_BUDGET} s")
    if proc.returncode != 0:
        raise ChildFailed(f"worker exited {proc.returncode}:\n"
                          f"{stderr[-4000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def merge(reports: list) -> dict:
    """One report for several workers' passes of the same workload."""
    merged = dict(reports[0])
    for report in reports[1:]:
        for key in ("ops", "items", "failed", "wall_s"):
            merged[key] += report[key]
        for key in ("errors", "samples_ms", "blocks", "scales"):
            merged[key] = merged[key] + report[key]
        merged["peak_rss_mb"] = max(merged["peak_rss_mb"],
                                    report["peak_rss_mb"])
    return merged


def end_to_end(args, base: Path, problems: list):
    started = time.monotonic()
    mains = [spawn(args, base / "main0", seconds=args.seconds, trace=0)]
    # a workload whose pass ends early runs each further pass in a fresh
    # worker, up to the pass boundary nearest to --seconds
    while mains[-1]["exhausted"]:
        elapsed = time.monotonic() - started
        if elapsed >= args.seconds - elapsed / len(mains) / 2:
            break
        mains.append(spawn(args, base / f"main{len(mains)}",
                           seconds=args.seconds, trace=0))
    main = merge(mains)
    setups = list(mains)
    for index in range(SETUPS - len(mains)):
        setups.append(spawn(args, base / f"setup{index}",
                            seconds=args.seconds, trace=0,
                            setup_only=True))
    problems.extend(main["errors"])
    tail_ms, percentile, count = tail(main["samples_ms"])
    # a closed loop runs whole blocks of identical content; the median
    # block is robust to a host slowdown that lasts a block or two.  An
    # open loop answers at the rate it is offered, so there ops_per_s
    # only shows whether the daemon kept up.
    rates = [items / seconds for items, seconds in main["blocks"]]
    metrics = {
        "setup_s": (statistics.median(report["setup_s"]
                                      * report["setup_scale"]
                                      for report in setups), "s"),
        "ops_per_s": (statistics.median(rates) if rates
                      else main["items"] / main["wall_s"], "1/s"),
        "op_p50_ms": (statistics.median(main["samples_ms"]), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = [f"op_tail_ms is p{percentile:.1f} of {count} samples"
             + (f"; ops_per_s is the median of {len(rates)} block(s)"
                if rates else ""),
             (f"times are scaled to the nominal host (median factor "
              f"{statistics.median(main['scales']):.3f})"
              if main["scales"] else "latencies are unscaled")
             + "; unscaled setup_s samples "
             + ", ".join(f"{report['setup_s']:.3f}" for report in setups)]
    return main, metrics, notes


def per_layer(args, base: Path, problems: list):
    plain = spawn(args, base / "untraced", seconds=args.seconds / 2,
                  trace=0)
    traced = spawn(args, base / "traced", seconds=args.seconds, trace=1,
                   max_ops=plain["ops"])
    problems.extend(plain["errors"] + traced["errors"])
    items = max(traced["items"], 1)
    layers = traced["layers_s"]
    counts = traced["counts"]

    def per_item_ms(seconds):
        return seconds * 1000.0 / items

    def layer(name):
        return layers.get(name, 0.0)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value, unit)

    wall = traced["wall_s"]
    covered = sum(layers.values())
    put("wall_ms", per_item_ms(wall), "ms/item")
    put("trace.overhead_pct",
        100.0 * (statistics.mean(traced["samples_ms"])
                 / statistics.mean(plain["samples_ms"]) - 1.0), "%")
    put("compiler.busy_ms", per_item_ms(layer("compiler")), "ms/item")
    put("compiler.operators", counts.get("compiler.operators", 0) / items,
        "count/item")
    put("compiler.states", counts.get("compiler.states", 0) / items,
        "count/item")
    put("xmlio.write_ms", per_item_ms(layer("xmlio.write")), "ms/item")
    put("xmlio.read_ms", per_item_ms(layer("xmlio.read")), "ms/item")
    put("xmlio.kb", counts.get("xmlio.bytes", 0) / 1024.0 / items,
        "KiB/item")
    put("stimulus.busy_ms", per_item_ms(layer("stimulus")), "ms/item")
    put("verification.self_ms", per_item_ms(layer("verification")),
        "ms/item")
    put("golden.busy_ms", per_item_ms(layer("golden")), "ms/item")
    put("to_sim.busy_ms", per_item_ms(layer("to_sim")), "ms/item")
    for backend in BACKENDS:
        put(f"kernel.codegen_ms.{backend}",
            per_item_ms(layer(f"kernel.codegen.{backend}")), "ms/item")
    put("kernelcache.lookup_ms", per_item_ms(layer("kernelcache.lookup")),
        "ms/item")
    hits = {kind: counts.get(f"kernelcache.{kind}", 0)
            for kind in ("mem_hits", "disk_hits", "misses")}
    for kind, value in hits.items():
        put(f"kernelcache.{kind}", value, "count")
    lookups = sum(hits.values())
    put("kernelcache.hit_ratio",
        (hits["mem_hits"] + hits["disk_hits"]) / lookups if lookups else 0.0,
        "ratio")
    sim_s = sum(layer(f"sim.{backend}") for backend in BACKENDS)
    cycles = sum(counts.get(f"sim.cycles.{backend}", 0)
                 for backend in BACKENDS)
    put("sim.busy_ms", per_item_ms(sim_s), "ms/item")
    put("sim.cycles", cycles / items, "cycles/item")
    put("sim.mcycles_per_s", cycles / sim_s / 1e6 if sim_s else 0.0,
        "Mcycle/s")
    for backend in BACKENDS:
        ran = counts.get(f"sim.cycles.{backend}", 0)
        put(f"sim.ns_per_cycle.{backend}",
            layer(f"sim.{backend}") * 1e9 / ran if ran else 0.0,
            "ns")
    put("rtg.busy_ms", per_item_ms(layer("rtg")), "ms/item")
    put("rtg.reconfigurations", counts.get("rtg.reconfigurations", 0),
        "count")
    put("compare.busy_ms", per_item_ms(layer("compare")), "ms/item")
    put("compare.words", counts.get("compare.words", 0) / items,
        "count/item")

    engines = traced["extra"].get("engines", {})
    inject_n, inject_s = engines.get("inject", (0, 0.0))
    mutant_n, mutant_s = engines.get("mutants", (0, 0.0))
    campaigns = counts.get("inject.campaigns", 0)
    put("inject.busy_ms", layer("inject") * 1000.0 / inject_n
        if inject_n else 0.0, "ms/fault")
    put("inject.faults_per_s", inject_n / inject_s if inject_s else 0.0,
        "1/s")
    put("inject.baseline_ms", counts.get("inject.baseline_s", 0)
        * 1000.0 / campaigns if campaigns else 0.0, "ms/campaign")
    put("inject.cycles", counts.get("inject.cycles", 0), "cycles")
    put("inject.hang_cycles", counts.get("inject.hang_cycles", 0), "cycles")
    for verdict in ("masked", "sdc", "hang", "crash"):
        put(f"inject.verdict.{verdict}",
            counts.get(f"inject.verdict.{verdict}", 0), "count")
    put("faults.mutant_ms", layer("faults") * 1000.0 / mutant_n
        if mutant_n else 0.0, "ms/mutant")
    put("faults.mutants_per_s", mutant_n / mutant_s if mutant_s else 0.0,
        "1/s")
    for verdict in ("detected", "crashed", "survived"):
        put(f"faults.verdict.{verdict}",
            counts.get(f"faults.verdict.{verdict}", 0), "count")

    serve = serve_layers(traced, put)
    if serve is not None:
        # an open loop's wall is set by its rate: coverage is taken over
        # the client-observed job latency instead
        wall, covered = serve
    put("other.self_ms", per_item_ms(max(wall - covered, 0.0)), "ms/item")
    put("trace.coverage", covered / wall if wall else 0.0, "ratio")
    return traced, metrics, [
        f"spans cover {100.0 * metrics['trace.coverage'][0]:.1f}% of the "
        f"traced wall time; tracing overhead "
        f"{metrics['trace.overhead_pct'][0]:+.1f}% against the untraced "
        f"run of the same {plain['ops']} operations"]


def serve_layers(report: dict, put):
    """Daemon-side histograms from the ``status`` op; returns the summed
    client latency and the part the daemon's layers account for."""
    stats = report["extra"].get("serve_stats") or {}
    hist = stats.get("histograms", {})

    def mean_ms(name):
        entry = hist.get(name)
        return entry["sum"] * 1000.0 / entry["count"] \
            if entry else 0.0

    def total_s(name):
        entry = hist.get(name)
        return entry["sum"] if entry else 0.0

    gates = ("memo", "artifact", "coalesce", "queue")
    for gate in gates:
        put(f"serve.gate_ms.{gate}", mean_ms(f"gate_{gate}_seconds"), "ms")
    put("serve.queue_wait_ms", mean_ms("queue_wait_seconds"), "ms")
    put("serve.execute_ms", mean_ms("execute_seconds"), "ms")
    put("serve.batch_size", hist.get("batch_size", {}).get("sum", 0)
        / max(hist.get("batch_size", {}).get("count", 0), 1), "jobs")
    for name in ("executed", "coalesced", "memo_hits", "steals"):
        put(f"serve.{name}", stats.get(name, 0), "count")
    put("serve.disk_hits", stats.get("artifact_hits", 0), "count")
    put("serve.no_exec_ratio", stats.get("cache_served_rate", 0.0), "ratio")
    late = report["extra"].get("late_ms") or [0.0]
    put("loadgen.late_ms_p50", statistics.median(late), "ms")
    put("loadgen.late_ms_tail", tail(late)[0], "ms")
    if not stats:
        return None
    latency = sum(report["samples_ms"]) / 1000.0
    covered = sum(total_s(f"gate_{gate}_seconds") for gate in gates) \
        + total_s("queue_wait_seconds") + total_s("execute_seconds")
    return latency, min(covered, latency)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.deadline = time.monotonic() + RUN_BUDGET
    if not (Path.cwd() / "src" / "repro").is_dir():
        print("error: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2

    base = Path.cwd() / ".layerbench" / f"run-{os.getpid()}-{time.time_ns()}"
    problems: list = []
    try:
        measure = per_layer if args.trace else end_to_end
        report, metrics, notes = measure(args, base, problems)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(base, ignore_errors=True)
        try:
            base.parent.rmdir()
        except OSError:
            pass

    attempted = report["items"]
    failed = report["failed"]
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{report['ops']} operation(s), {attempted} item(s), "
          f"{failed} failed (fail_ratio {failed / max(attempted, 1):.4f})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {unit}")
    for note in notes:
        print(f"  {note}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
