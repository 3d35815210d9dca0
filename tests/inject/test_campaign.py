"""Tests for the campaign runner: classification, replay, pooling."""

import multiprocessing

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import verify_design
from repro.core.faults import Fault
from repro.inject import (FaultDescriptor, FaultloadGenerator, run_campaign,
                          run_injection)
from repro.inject import campaign as campaign_mod
from repro.obs.ledger import Ledger

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="campaign pool requires the fork start method")

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

# stuck-at-0 on this register output deterministically prevents fdct1
# from ever asserting done, on both the compiled and the event kernel —
# the stable hang anchor for classification tests
HANG_FAULT = FaultDescriptor(fault_id="hang-anchor", kind="stuck",
                             target="n_mux_c_y", bit=0, stuck_value=0)


@pytest.fixture(scope="module")
def threshold():
    case = suite_case("threshold", n_pixels=32)
    return case, case.compile(), case.inputs(0)


@pytest.fixture(scope="module")
def fdct1():
    case = suite_case("fdct1", **SMALL_SIZES["fdct1"])
    return case, case.compile(), case.inputs(0)


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_empty_faultload_reproduces_golden(name):
    """The acceptance gate: with zero faults armed, every app's
    hardware run is bit-exact against the golden software execution
    (every memory compared, not just outputs).  Multi-configuration
    designs sit outside the injection layer; they must be refused with
    the documented error, and their golden equivalence is checked
    through the ordinary verification path instead."""
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    if design.multi_configuration:
        with pytest.raises(ValueError, match="single-configuration"):
            run_campaign(design, case.func, [], case.inputs(0), app=name)
        result = verify_design(design, case.func, case.inputs(0),
                               backend="compiled")
        assert result.passed, result.summary()
        return
    report = run_campaign(design, case.func, [], case.inputs(0),
                          app=name, backend="compiled")
    assert report.baseline is not None
    assert report.baseline.verdict == "masked"
    assert report.baseline.note == ""
    assert report.results == []
    assert report.cycle_budget >= 1000
    assert report.planned == 0


class TestClassification:
    def test_hang_is_classified(self, fdct1):
        case, design, inputs = fdct1
        report = run_campaign(design, case.func, [HANG_FAULT], inputs,
                              backend="compiled")
        assert [r.verdict for r in report.results] == ["hang"]
        assert report.hang_reproducers == [HANG_FAULT]
        assert report.results[0].cycles == report.cycle_budget

    def test_hang_on_event_kernel_too(self, fdct1):
        case, design, inputs = fdct1
        result = run_injection(design, case.func, HANG_FAULT, inputs,
                               backend="event", max_cycles=5000)
        assert result.verdict == "hang"
        assert result.mechanism == "watcher"

    def test_mem_flip_on_output_memory_is_sdc(self, threshold):
        case, design, inputs = threshold
        name = next(name for name, spec in design.arrays.items()
                    if spec.role == "output")
        fault = FaultDescriptor(fault_id="m", kind="mem_flip", target=name,
                                bit=0, word=0)
        # the flip lands pre-run, so the verdict depends on whether the
        # design overwrites that word; either way it must be a clean
        # classification delivered through the image mechanism
        result = run_injection(design, case.func, fault, inputs,
                               backend="compiled")
        assert result.verdict in ("masked", "sdc")
        assert result.mechanism == "image"

    def test_replayed_faultload_yields_identical_verdicts(self, threshold):
        """Acceptance: a seeded faultload is deterministic end-to-end —
        running it twice gives verdict-identical campaigns."""
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=1,
                                    max_cycle=baseline.cycles).generate(10)
        first = run_campaign(design, case.func, faults, inputs,
                             backend="compiled")
        second = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        def as_pairs(report):
            return [(r.fault.fault_id, r.verdict, r.cycles)
                    for r in report.results]

        assert as_pairs(first) == as_pairs(second)

    def test_coverage_table_counts_match_tally(self, threshold):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=2,
                                    max_cycle=baseline.cycles).generate(9)
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        table = report.coverage_table()
        tally = report.tally()
        assert sum(tally.values()) == len(report.results) == 9
        for verdict in tally:
            assert tally[verdict] == sum(row[verdict]
                                         for row in table.values())


class TestPool:
    @fork_only
    def test_pool_verdicts_match_serial(self, threshold):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=4,
                                    max_cycle=baseline.cycles).generate(8)
        serial = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=1)
        pooled = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=2)
        assert [r.verdict for r in serial.results] \
            == [r.verdict for r in pooled.results]
        assert campaign_mod._ACTIVE_CAMPAIGN is None

    def test_worker_never_raises(self):
        """A broken worker state must come back as a crash verdict, not
        an exception that would poison the whole pool."""
        assert campaign_mod._ACTIVE_CAMPAIGN is None
        result = campaign_mod._pool_inject(0)
        assert result.verdict == "crash"
        assert result.fault is None
        assert "TypeError" in result.note or "Error" in result.note

    def test_jobs_must_be_positive(self, threshold):
        case, design, inputs = threshold
        with pytest.raises(ValueError, match="jobs"):
            run_campaign(design, case.func, [], inputs, jobs=0)


class TestTimeBudget:
    def test_zero_budget_classifies_nothing(self, threshold):
        case, design, inputs = threshold
        faults = [FaultDescriptor(fault_id=f"f{i}", kind="mem_flip",
                                  target=next(iter(design.arrays)),
                                  bit=0, word=0)
                  for i in range(4)]
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", time_budget=0.0)
        assert report.planned == 4
        assert report.results == []
        assert "time budget hit: 0/4" in report.summary()

    def test_no_budget_classifies_everything(self, threshold):
        case, design, inputs = threshold
        faults = FaultloadGenerator(design, seed=5, max_cycle=100) \
            .generate(4, kinds=("mem_flip",))
        report = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        assert len(report.results) == report.planned == 4
        assert "time budget" not in report.summary()


class TestBatched:
    def test_batched_mem_flips_match_serial(self, threshold):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=6,
                                    max_cycle=baseline.cycles) \
            .generate(6, kinds=("mem_flip",))
        serial = run_campaign(design, case.func, faults, inputs,
                              backend="compiled")
        batched = run_campaign(design, case.func, faults, inputs,
                               backend="batched")
        assert [r.verdict for r in serial.results] \
            == [r.verdict for r in batched.results]
        assert all(r.mechanism == "image" for r in batched.results)


class TestLedgerRecording:
    def test_campaign_lands_in_the_ledger(self, threshold, tmp_path):
        case, design, inputs = threshold
        baseline = run_injection(design, case.func, None, inputs,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=7,
                                    max_cycle=baseline.cycles).generate(5)
        path = tmp_path / "campaign.sqlite"
        report = run_campaign(design, case.func, faults, inputs,
                              app="threshold", backend="compiled",
                              ledger=path)
        with Ledger(path) as ledger:
            runs = ledger.runs()
            assert len(runs) == 1
            assert runs[0].kind == "inject"
            assert runs[0].extra["verdicts"] == report.tally()
            rows = ledger.fault_rows(runs[0].run_id)
            # one row per fault plus the fault-free baseline
            assert len(rows) == 6
            baseline_rows = [row for row in rows if row.kind == "none"]
            assert len(baseline_rows) == 1
            assert baseline_rows[0].verdict == "masked"
            by_id = {row.fault_id: row for row in rows
                     if row.kind != "none"}
            for result in report.results:
                row = by_id[result.fault.fault_id]
                assert row.verdict == result.verdict
                assert row.descriptor == result.fault.to_dict()


class TestMutation:
    """Seed mutants as one more faultload kind on the same engine."""

    def test_mutant_is_classified_and_marked(self, threshold):
        case, design, inputs = threshold
        fault = FaultDescriptor.from_mutation(
            Fault("cmp_op", "u0_lt", "lt -> le"), "m0")
        result = run_injection(design, case.func, fault, inputs,
                               backend="event", max_cycles=4000)
        assert result.mechanism == "mutation"
        # the loop-bound bug writes one word past the output memory
        assert result.verdict == "crash"
        assert "exceeds depth" in result.note
        # the original design is left untouched
        assert design.configurations[0].datapath \
            .components["u0_lt"].type == "lt"

    def test_unappliable_mutant_is_a_crash(self, threshold):
        case, design, inputs = threshold
        fault = FaultDescriptor.from_mutation(
            Fault("cmp_op", "no_such_component"), "m0")
        result = run_injection(design, case.func, fault, inputs,
                               backend="event")
        assert result.verdict == "crash"
        assert "KeyError" in result.note

    def test_mutants_hang_within_the_baseline_budget(self, threshold):
        case, design, inputs = threshold
        faults = FaultloadGenerator(design, seed=1) \
            .generate(16, kinds=("mutation",))
        report = run_campaign(design, case.func, faults, inputs,
                              backend="event", max_cycles=1_000_000)
        assert report.cycle_budget \
            == max(report.baseline.cycles * 4, 1000)
        hangs = [r for r in report.results if r.verdict == "hang"]
        assert hangs and all(r.cycles == report.cycle_budget for r in hangs)

    def test_max_cycles_caps_the_budget(self, threshold):
        case, design, inputs = threshold
        report = run_campaign(design, case.func, [], inputs,
                              backend="event", max_cycles=600)
        assert report.baseline.cycles < 600
        assert report.cycle_budget == 600

    @fork_only
    def test_pooled_mutants_match_serial(self, threshold):
        case, design, inputs = threshold
        faults = FaultloadGenerator(design, seed=3) \
            .generate(10, kinds=("mutation", "stuck"))
        serial = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=1)
        pooled = run_campaign(design, case.func, faults, inputs,
                              backend="compiled", jobs=2)
        assert [(r.verdict, r.cycles) for r in serial.results] \
            == [(r.verdict, r.cycles) for r in pooled.results]
        assert "mutation" in serial.coverage_table()
