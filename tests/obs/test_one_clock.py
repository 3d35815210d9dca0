"""Spans are the only clock.

Every duration the program reports — a result field, a serve histogram,
a ledger row — is read from the span that surrounds the work, so with a
recorder installed the reported number and the recorded span ``dur``
agree to the microsecond.  The last test keeps hand-rolled timers from
coming back: every clock read under ``src/repro`` must be on an
explicit allowlist.
"""

import ast
import asyncio
import json
import time
from pathlib import Path

import pytest

from repro.apps.registry import suite_case
from repro.core import testsuite
from repro.core.flow import Flow, FlowStage
from repro.core.testsuite import run_case
from repro.core.verification import verify_design
from repro.obs import recording, uninstall
from repro.serve import ServeScheduler

#: microseconds; a span's ``dur`` and its ``seconds`` are two renderings
#: of one nanosecond difference, so this bound only absorbs float error
TOLERANCE_US = 1.0

TINY = {"case": "threshold", "size": {"n_pixels": 32}}


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    uninstall()
    yield
    uninstall()


def _spans(path, name):
    entries = [json.loads(line) for line in path.read_text().splitlines()
               if line.strip()]
    return [entry for entry in entries if entry["name"] == name]


def _agrees(seconds, spans):
    assert spans, "no span recorded"
    recorded = sum(entry["dur"] for entry in spans)
    assert abs(seconds * 1e6 - recorded) <= TOLERANCE_US, \
        (seconds * 1e6, recorded)


class TestTraceAndMetricAgree:
    def test_verify_golden_and_simulation(self, tmp_path):
        case = suite_case("threshold", n_pixels=32)
        design = case.compile()
        path = tmp_path / "events.jsonl"
        with recording(path):
            result = verify_design(design, case.func, case.inputs(0))
        _agrees(result.golden_seconds, _spans(path, "verify.golden"))
        _agrees(result.simulation_seconds,
                _spans(path, "verify.simulate"))

    def test_flow_stages(self, tmp_path):
        flow = Flow([FlowStage("first", lambda ctx: time.sleep(0.002)),
                     FlowStage("second", lambda ctx: "done")])
        path = tmp_path / "events.jsonl"
        with recording(path):
            report = flow.run()
        assert [stage.name for stage in report.stages] == \
            ["first", "second"]
        for stage in report.stages:
            _agrees(stage.seconds, _spans(path, f"flow.{stage.name}"))

    def test_suite_compile(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with recording(path):
            result = run_case(suite_case("threshold", n_pixels=32), seed=0)
        assert result.passed
        _agrees(result.compile_seconds, _spans(path, "suite.compile"))

    def test_served_job_latency_and_queue_wait(self, tmp_path):
        async def session():
            scheduler = ServeScheduler(jobs=1, batch_max=4)
            await scheduler.start()
            submissions = [scheduler.submit({**TINY, "seed": seed})
                           for seed in (0, 1, 0)]
            submissions.append(scheduler.submit({**TINY, "seed": 2}))
            await asyncio.gather(*(s.future for s in submissions))
            # a repeat of a finished job is answered by the memo gate
            memo = scheduler.submit({**TINY, "seed": 1})
            await memo.future
            await scheduler.shutdown()
            return scheduler, [s.served for s in submissions + [memo]]

        path = tmp_path / "events.jsonl"
        with recording(path):
            scheduler, served = asyncio.run(session())
        assert "coalesced" in served and served[-1] == "memo"
        hist = scheduler.histograms
        assert hist["job_latency_seconds"].count == 5
        _agrees(hist["job_latency_seconds"].total,
                _spans(path, "serve.job"))
        _agrees(hist["queue_wait_seconds"].total,
                _spans(path, "serve.queue"))
        _agrees(hist["gate_memo_seconds"].total,
                _spans(path, "serve.gate.memo"))
        _agrees(scheduler.stats()["wall_seconds"],
                _spans(path, "serve.run"))


def test_failing_case_reports_only_compile_time(monkeypatch):
    """Verification that sleeps and then raises must not be billed as
    compile time."""
    def slow_failure(*args, **kwargs):
        time.sleep(0.2)
        raise RuntimeError("verification exploded")

    monkeypatch.setattr(testsuite, "verify_design", slow_failure)
    result = run_case(suite_case("threshold", n_pixels=32), seed=0)
    assert result.error == "verification exploded"
    assert result.compile_seconds < 0.1


# ----------------------------------------------------------------------
# No hand-rolled timers
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

_CLOCKS = ("perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns",
           "time", "time_ns")

#: every clock read that may stay, as (module, function) -> reason
ALLOWED_CLOCK_READS = {
    ("repro.obs.trace", "Span.seconds"):
        "the span clock itself: elapsed time of an open span",
    ("repro.obs.trace", "Span._begin"):
        "the span clock itself: start timestamp",
    ("repro.obs.trace", "Span._end"):
        "the span clock itself: end timestamp",
    ("repro.obs.trace", "TraceRecorder.__init__"):
        "the recorder's timeline origin",
    ("repro.obs.trace", "TraceRecorder.instant"):
        "timestamp of a zero-duration marker event",
    ("repro.serve.client", "wait_for_socket"):
        "the client connect deadline, not a duration",
    ("repro.obs.ledger", "Ledger._insert_run"):
        "wall-clock timestamp of a run row",
    ("repro.obs.dashboard", "render_dashboard"):
        "wall-clock 'generated at' stamp of the dashboard",
    ("repro.sim.compiled", "_bind"):
        "the generated kernel's per-cycle profile clock",
}


class _ClockReads(ast.NodeVisitor):
    def __init__(self, module):
        self.module = module
        self.scope = []
        self.hits = []

    def _scoped(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _scoped

    def _hit(self, node):
        self.hits.append((self.module, ".".join(self.scope) or "<module>",
                          node.lineno))

    def visit_Attribute(self, node):
        if isinstance(node.value, ast.Name) and node.value.id == "time" \
                and node.attr in _CLOCKS:
            self._hit(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "time" \
                and any(alias.name in _CLOCKS for alias in node.names):
            self._hit(node)


def _clock_reads():
    hits = []
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        visitor = _ClockReads(module)
        visitor.visit(ast.parse(path.read_text(), str(path)))
        hits.extend(visitor.hits)
    return hits


def test_every_clock_read_is_allowlisted():
    hits = _clock_reads()
    stray = [f"{module}:{line} in {scope}" for module, scope, line in hits
             if (module, scope) not in ALLOWED_CLOCK_READS]
    assert not stray, (
        "hand-rolled timer(s) found; read the duration from the span "
        "around the work (Span.seconds) instead: " + ", ".join(stray))
    # the allowlist names only reads that still exist
    assert {(module, scope) for module, scope, _ in hits} == \
        set(ALLOWED_CLOCK_READS)
