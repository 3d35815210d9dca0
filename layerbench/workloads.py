"""The four workloads.

Each workload has a ``setup`` (everything before the first timed
operation) and a ``measure`` that runs operations until the time or the
operation limit is reached.  Every operation is checked against the
golden run and against the exact counts in ``reference.json``; a count
that differs fails the operation, it is never reported as a slowdown.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.apps.registry import suite_case
from repro.core import faults as seed_faults
from repro.core.kernelcache import KernelCache, set_default_cache
from repro.hdl.xmlio.rtg_xml import load_rtg_bundle
from repro.inject import FaultDescriptor, FaultloadGenerator
from repro.inject import run_campaign as inject_campaign

import catalog
import hostspeed
import pipeline
from tracer import Tracer, tail

MAX_ERRORS = 5


class Run:
    """One measured execution: its inputs, limits and tallies."""

    def __init__(self, *, seed: int, seconds: float,
                 max_ops: Optional[int], tracer, workdir: Path) -> None:
        self.seed = seed
        self.seconds = seconds
        self.max_ops = max_ops
        self.tracer = tracer
        self.workdir = workdir
        self.reference = catalog.load_reference()
        self.ops = 0
        self.items = 0
        self.failed = 0
        #: milliseconds per item, one sample per item
        self.samples: List[float] = []
        #: (items, scaled seconds) of each whole block of a closed loop
        self.blocks: List[Tuple[int, float]] = []
        #: host-speed factor applied to each operation's time
        self.scales: List[float] = []
        self.errors: List[str] = []
        self.extra: Dict[str, object] = {}
        #: unscaled seconds of the operations, calibrations left out
        self.wall = 0.0
        #: the operations ran out before the limit (one pass is done)
        self.exhausted = False

    def fail(self, items: int, message: str) -> None:
        self.failed += items
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def done(self, started: float, blocks: int) -> bool:
        """Stop at the block boundary nearest to the time limit."""
        if self.max_ops is not None:
            return self.ops >= self.max_ops
        elapsed = time.perf_counter() - started
        return elapsed >= self.seconds - elapsed / blocks / 2

    def closed_loop(self, ops: Iterator, execute, *, size=lambda op: 1,
                    whole: int = 1) -> None:
        """Run *ops* one after another until the limit, which is only
        checked after each block of *whole* operations.  An operation
        covers ``size(op)`` items; if it raises, all of them fail.  Each
        operation's time is scaled by the mean of the host speeds
        measured just before and just after it."""
        started = time.perf_counter()
        block_items, block_seconds = 0, 0.0
        before = hostspeed.scale(samples=1)
        for op in ops:
            items = size(op)
            failed = self.failed
            begun = time.perf_counter()
            try:
                execute(op)
            except Exception as exc:  # noqa: BLE001 - counted, reported
                self.failed = failed
                self.fail(items, f"{op}: {type(exc).__name__}: {exc}")
            took = time.perf_counter() - begun
            self.wall += took
            after = hostspeed.scale(samples=1)
            factor = (before + after) / 2
            before = after
            took *= factor
            self.scales.append(factor)
            self.ops += 1
            self.items += items
            # every item of an operation takes its share of the time
            self.samples += [took * 1000.0 / items] * items
            block_items += items
            block_seconds += took
            if self.ops % whole:
                continue
            self.blocks.append((block_items, block_seconds))
            block_items, block_seconds = 0, 0.0
            if self.done(started, len(self.blocks)):
                break
        else:
            self.exhausted = True

    def check(self, label: str, result, expected: dict) -> None:
        if not result.passed:
            self.fail(1, f"{label}: golden mismatch")
        elif result.cycles != expected["cycles"] or \
                result.reconfigurations != expected["reconfigurations"]:
            self.fail(1, f"{label}: counts {result.cycles}/"
                         f"{result.reconfigurations} differ from the "
                         f"reference {expected['cycles']}/"
                         f"{expected['reconfigurations']}")


# ----------------------------------------------------------------------
# regress-cold: the compiler just changed
# ----------------------------------------------------------------------
class RegressCold:
    """One pass over the pool: every operation compiles a structure not
    yet seen in this interpreter, writes and reads back its XML and
    verifies it once, starting from an empty kernel cache.  A second
    pass in the same interpreter would find the program's own caches
    warm (it runs about a third faster), so ``run.py`` starts a fresh
    worker for each further pass.  Serial, closed loop, one client."""

    BACKENDS = ("traced", "compiled")

    def setup(self, run: Run) -> None:
        self.structures = run.reference["regress-cold"]
        set_default_cache(KernelCache(run.workdir / "kernels"))

    def ops(self, run: Run) -> Iterator[Tuple[str, str]]:
        # every structure keeps one kernel, alternating down the pool, so
        # each pass does the same work and the seed changes only the order
        kernels = {ident: self.BACKENDS[index % len(self.BACKENDS)]
                   for index, ident in enumerate(sorted(self.structures))}
        for ident in catalog.shuffled(self.structures, run.seed,
                                      "regress-cold"):
            yield ident, kernels[ident]

    def execute(self, run: Run, op) -> None:
        ident, backend = op
        tracer = run.tracer
        app, opt, chain, sharing = catalog.parse_structure(ident)
        with tracer.span("compiler"):
            case, design = catalog.compile_structure(app, opt, chain,
                                                     sharing)
        tracer.count("compiler.operators", design.total_operators())
        tracer.count("compiler.states",
                     sum(config.state_count()
                         for config in design.configurations))
        xml_dir = run.workdir / "xml" / app
        with tracer.span("xmlio.write"):
            written = design.save(xml_dir)
        tracer.count("xmlio.bytes", sum(path.stat().st_size
                                        for path in written))
        with tracer.span("xmlio.read"):
            rtg = load_rtg_bundle(xml_dir / f"{design.name}_rtg.xml")
        with tracer.span("stimulus"):
            inputs = case.inputs(catalog.COLD_STIMULUS)
        # verify the structure as read back from its XML
        result = pipeline.verify(tracer, dataclasses.replace(design, rtg=rtg),
                                 case.func, inputs, backend)
        run.check(ident, result, self.structures[ident])

    def measure(self, run: Run) -> None:
        run.closed_loop(self.ops(run), lambda op: self.execute(run, op),
                        whole=len(self.structures))


# ----------------------------------------------------------------------
# soak-warm: large stimuli on an unchanged compiler
# ----------------------------------------------------------------------
class SoakWarm:
    """The 8-app suite at the Table I sizes, verified over and over with
    fresh stimulus seeds on three kernels; kernels are warmed during
    set-up.  Serial, closed loop, one client."""

    def setup(self, run: Run) -> None:
        set_default_cache(KernelCache(run.workdir / "kernels"))
        self.cases = {}
        self.designs = {}
        for app in catalog.APPS:
            case = suite_case(app, **catalog.TABLE1_SIZES[app])
            self.cases[app] = case
            self.designs[app] = case.compile()
        for design in self.designs.values():
            pipeline.build_kernels(design, catalog.SOAK_BACKENDS)
        self.reference = run.reference["soak-warm"]
        # one untimed verification per app pays the first allocation of
        # its large images
        for app, design in self.designs.items():
            case = self.cases[app]
            pipeline.verify(Tracer(False), design, case.func,
                            case.inputs(catalog.WARMUP_SEED), "compiled")

    def ops(self, run: Run) -> Iterator[Tuple[str, str, List[int]]]:
        """Rounds over every (app, kernel) pair in a seeded order; each
        pair takes the next seeds of its app's seeded stimulus pool."""
        pools = {app: itertools.cycle(catalog.shuffled(
                     range(catalog.SOAK_SEEDS), run.seed, f"soak:{app}"))
                 for app in catalog.APPS}
        pairs = list(itertools.product(catalog.APPS, catalog.SOAK_BACKENDS))
        for round_index in itertools.count():
            for app, backend in catalog.shuffled(pairs, run.seed,
                                                 f"soak:{round_index}"):
                count = catalog.SOAK_BATCH if backend == "batched" else 1
                yield app, backend, [next(pools[app])
                                     for _ in range(count)]

    def execute(self, run: Run, op) -> None:
        app, backend, seeds = op
        tracer = run.tracer
        case, design = self.cases[app], self.designs[app]
        with tracer.span("stimulus"):
            inputs = [case.inputs(seed) for seed in seeds]
        if backend == "batched":
            results = pipeline.verify_batch(tracer, design, case.func,
                                            inputs)
        else:
            results = [pipeline.verify(tracer, design, case.func,
                                       inputs[0], backend)]
        for seed, result in zip(seeds, results):
            run.check(f"{app}@{seed}/{backend}", result,
                      self.reference[app][seed])

    def measure(self, run: Run) -> None:
        # whole rounds only, so every (app, kernel) pair weighs the same
        run.closed_loop(self.ops(run), lambda op: self.execute(run, op),
                        size=lambda op: len(op[2]),
                        whole=len(catalog.APPS) * len(catalog.SOAK_BACKENDS))


# ----------------------------------------------------------------------
# fault-campaign: qualify the infrastructure
# ----------------------------------------------------------------------
def inject_pool(design) -> List[FaultDescriptor]:
    return FaultloadGenerator(design, seed=catalog.INJECT_POOL_SEED) \
        .generate(catalog.INJECT_POOL, kinds=catalog.INJECT_KINDS)


def mutant_pool(design) -> list:
    config = design.configurations[0]
    return seed_faults.enumerate_faults(
        config.datapath, config.fsm,
        limit_per_kind=catalog.MUTANT_LIMIT_PER_KIND)


class FaultCampaign:
    """One pass over the whole fault space: each fault of the
    ``repro.inject`` pools once, in chunks run in seeded order, half of
    them on ``event`` (a 2-worker fork pool) and half on ``batched``,
    and each seed mutant (``core.faults``) once, from an empty kernel
    cache.  As for regress-cold, ``run.py`` runs each further pass in a
    fresh worker.  Closed loop, one client.

    The compiled and traced kernels are not used for injection: their
    in-kernel stuck-at forcing misses faults on constant-operator nets
    (README, "Kernels that disagree"), and every operation of a workload
    must pass."""

    INJECT_BACKENDS = (("event", 2), ("batched", 1))
    INJECT_CHUNK = 8
    MUTANT_CHUNK = 4

    def setup(self, run: Run) -> None:
        self.reference = run.reference["fault-campaign"]
        self.cases, self.designs, self.inputs = {}, {}, {}
        for app in set(catalog.INJECT_APPS) | set(catalog.MUTANT_APPS):
            case = suite_case(app)
            self.cases[app] = case
            self.designs[app] = case.compile()
            self.inputs[app] = case.inputs(catalog.FAULT_STIMULUS)
        self.faults = {app: inject_pool(self.designs[app])
                       for app in catalog.INJECT_APPS}
        self.mutants = {app: mutant_pool(self.designs[app])
                        for app in catalog.MUTANT_APPS}
        self.engine_time = {"inject": [0, 0.0], "mutants": [0, 0.0]}
        run.extra["engines"] = self.engine_time
        set_default_cache(KernelCache(run.workdir / "kernels"))

    def ops(self, run: Run) -> List[tuple]:
        def chunks(items, size):
            return [items[at:at + size] for at in range(0, len(items), size)]

        ops = []
        kernels = len(self.INJECT_BACKENDS)
        for app in catalog.INJECT_APPS:
            # every fault keeps one kernel and one chunk, alternating
            # down the pool, so each pass does the same work and the seed
            # changes only the order of the chunks
            for position, (backend, jobs) in enumerate(self.INJECT_BACKENDS):
                share = self.faults[app][position::kernels]
                ops += [("inject", app, backend, jobs, chunk)
                        for chunk in chunks(share, self.INJECT_CHUNK)]
        for app in catalog.MUTANT_APPS:
            ops += [("mutants", app, "event", 1, chunk)
                    for chunk in chunks(self.mutants[app],
                                        self.MUTANT_CHUNK)]
        return catalog.shuffled(ops, run.seed, "faults")

    def execute(self, run: Run, op) -> None:
        engine, app, backend, jobs, chunk = op
        begun = time.perf_counter()
        if engine == "inject":
            self._inject(run, app, backend, jobs, chunk)
        else:
            self._mutants(run, app, chunk)
        tally = self.engine_time[engine]
        tally[0] += len(chunk)
        tally[1] += time.perf_counter() - begun

    def _inject(self, run: Run, app, backend, jobs, chunk) -> None:
        tracer = run.tracer
        with tracer.span("inject"):
            report = inject_campaign(
                self.designs[app], self.cases[app].func, chunk,
                self.inputs[app], app=app, backend=backend, jobs=jobs,
                hang_factor=catalog.INJECT_HANG_FACTOR)
        tracer.count("inject.baseline_s", report.baseline.seconds)
        tracer.count("inject.campaigns")
        # one verdict per fault, whichever kernel runs it
        expected = self.reference["inject"][app]
        if len(report.results) != len(chunk):
            run.fail(len(chunk), f"inject {app}/{backend}: "
                                 f"{len(report.results)} of {len(chunk)} "
                                 f"classified")
        for result in report.results:
            fault_id = result.fault.fault_id
            want = expected[fault_id]
            tracer.count(f"inject.verdict.{result.verdict}")
            tracer.count("inject.cycles", result.cycles)
            if result.verdict == "hang":
                tracer.count("inject.hang_cycles", result.cycles)
            if [result.verdict, result.cycles] != want:
                run.fail(1, f"inject {app}/{backend} {fault_id}: "
                            f"{result.verdict}/{result.cycles}, reference "
                            f"{want[0]}/{want[1]}")

    def _mutants(self, run: Run, app, chunk) -> None:
        tracer = run.tracer
        with tracer.span("faults"):
            result = seed_faults.run_campaign(
                self.designs[app], self.cases[app].func, self.inputs[app],
                faults=list(chunk), max_cycles=catalog.MUTANT_MAX_CYCLES)
        tracer.count("faults.campaigns")
        expected = self.reference["mutants"][app]
        if len(result.verdicts) != len(chunk):
            run.fail(len(chunk), f"mutants {app}: {len(result.verdicts)} "
                                 f"of {len(chunk)} classified")
        for verdict in result.verdicts:
            label = verdict.fault.describe()
            tracer.count(f"faults.verdict.{verdict.verdict}")
            if verdict.verdict != expected[label]:
                run.fail(1, f"mutant {app} {label}: {verdict.verdict}, "
                            f"reference {expected[label]}")

    def measure(self, run: Run) -> None:
        ops = self.ops(run)
        run.closed_loop(ops, lambda op: self.execute(run, op),
                        size=lambda op: len(op[4]), whole=len(ops))


# ----------------------------------------------------------------------
# serve-open: a shared verification service
# ----------------------------------------------------------------------
class ServeOpen:
    """A ``repro serve --jobs 2`` daemon in its own process; this
    process is its one client and sends an open-loop stream at a fixed
    rate.  Two requests in every five (40%, about half) repeat an
    earlier job, Zipf over the jobs sent so far; the rest ask for a new
    (app, seed), so the median job is one that executes."""

    #: requests per second.  At 30/s a slower host stretched the tail
    #: more than in proportion: eight seeds gave p95 values from 80 to
    #: 128 ms (interquartile spread 47%).  At 20/s ten seeds gave 13%.
    RATE = 20.0
    #: positions, in every five requests, of those that repeat a job
    REPEATS = (1, 3)
    ZIPF_S = 1.1
    WORKERS = 2
    BACKEND = "traced"
    #: a run whose sends ran later than this at the tail is invalid
    LATE_BOUND_MS = 25.0

    def setup(self, run: Run) -> None:
        kernels = run.workdir / "kernels"
        set_default_cache(KernelCache(kernels))
        self.reference = run.reference["serve-open"]
        # prewarm the disk kernel cache for the eight structures, on the
        # serial kernel jobs ask for and the batched kernel the daemon
        # folds same-structure jobs into
        for app in catalog.APPS:
            pipeline.build_kernels(
                suite_case(app, **catalog.SERVE_SIZES[app]).compile(),
                (self.BACKEND, "batched"))
        self.socket = os.path.relpath(run.workdir / "serve.sock")
        env = dict(os.environ, REPRO_KERNEL_CACHE=str(kernels))
        self.log = open(run.workdir / "daemon.log", "wb")
        self.daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket",
             self.socket, "--jobs", str(self.WORKERS), "--cache",
             str(run.workdir / "artifacts")],
            env=env, stdout=self.log, stderr=subprocess.STDOUT)
        from repro.serve import wait_for_socket
        try:
            wait_for_socket(self.socket, timeout=60)
        except TimeoutError:
            self.close()
            raise

    def close(self) -> None:
        """Stop the daemon through its own shutdown op, which also stops
        its pool workers; a signal is only the fallback."""
        from repro.serve import ServeClient

        if self.daemon.poll() is None:
            try:
                with ServeClient(self.socket, timeout=30) as client:
                    client.shutdown()
            except (OSError, ConnectionError, RuntimeError):
                self.daemon.terminate()
            try:
                self.daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.log.close()

    def schedule(self, run: Run, count: int) -> List[dict]:
        rng = random.Random(f"serve-open:{run.seed}")
        # new jobs come in blocks holding each app once, so every run
        # asks for the same mix of apps; past the pool, seeds come round
        # again (and are answered from the memo)
        seeds = {app: itertools.cycle(catalog.shuffled(
                     range(catalog.SERVE_SEEDS), run.seed,
                     f"serve-open:{app}"))
                 for app in catalog.APPS}
        fresh = ((app, next(seeds[app]))
                 for block in itertools.count()
                 for app in catalog.shuffled(catalog.APPS, run.seed,
                                             f"serve-open:{block}"))
        sent: List[Tuple[str, int]] = []
        jobs = []
        for index in range(count):
            if sent and index % 5 in self.REPEATS:
                weights = [1.0 / (rank + 1) ** self.ZIPF_S
                           for rank in range(len(sent))]
                app, seed = rng.choices(sent, weights=weights)[0]
            else:
                app, seed = next(fresh)
                sent.append((app, seed))
            jobs.append({"case": app, "size": catalog.SERVE_SIZES[app],
                         "seed": seed, "backend": self.BACKEND})
        return jobs

    def measure(self, run: Run) -> None:
        from repro.serve import ServeClient

        count = run.max_ops if run.max_ops is not None \
            else max(1, int(self.RATE * run.seconds))
        jobs = self.schedule(run, count)
        interval = 1.0 / self.RATE
        late: List[float] = [0.0] * count
        try:
            with ServeClient(self.socket, timeout=60) as client:
                start = time.perf_counter() + 0.05

                def send() -> None:
                    for index, job in enumerate(jobs):
                        due = start + index * interval
                        pause = due - time.perf_counter()
                        if pause > 0:
                            time.sleep(pause)
                        late[index] = (time.perf_counter() - due) * 1000.0
                        client.submit(job, request_id=index)

                sender = threading.Thread(target=send, daemon=True)
                sender.start()
                last = start
                for event in client.results(count):
                    last = time.perf_counter()
                    index = event["id"]
                    run.samples.append(
                        (last - start - index * interval) * 1000.0)
                    self._check(run, jobs[index], event)
                sender.join(timeout=60)
                run.wall = last - start
                run.ops = run.items = count
                stats = client.status()
                client.shutdown()
            self.daemon.wait(timeout=60)
        finally:
            self.close()
        run.extra["late_ms"] = late
        run.extra["serve_stats"] = stats
        late_tail = tail(late)[0]
        if late_tail > self.LATE_BOUND_MS:
            run.errors.append(
                f"invalid run: the load generator sent {late_tail:.1f} ms "
                f"late at the tail (bound {self.LATE_BOUND_MS} ms)")

    def _check(self, run: Run, job: dict, event: dict) -> None:
        label = f"{job['case']}@{job['seed']}"
        payload = event.get("result") or {}
        verification = payload.get("verification")
        if payload.get("error") or verification is None:
            run.fail(1, f"{label}: {payload.get('error')}")
            return
        if any(check["mismatches"] for check in verification["checks"]):
            run.fail(1, f"{label}: golden mismatch")
            return
        want = self.reference[job["case"]][job["seed"]]
        got = [verification["cycles"], verification["reconfigurations"]]
        if got != [want["cycles"], want["reconfigurations"]]:
            run.fail(1, f"{label}: counts {got} differ from the reference")


WORKLOADS = {
    "regress-cold": RegressCold,
    "soak-warm": SoakWarm,
    "serve-open": ServeOpen,
    "fault-campaign": FaultCampaign,
}
