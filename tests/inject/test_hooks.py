"""Tests for fault attachment: kernel specs, watchers, cycle hooks."""

import os

import pytest

from repro.apps import suite_case
from repro.core import prepare_images
from repro.inject import (FaultDescriptor, FaultloadGenerator, attach_fault,
                          kernel_spec, output_adjacent_nets, run_campaign,
                          run_injection)
from repro.rtg import ReconfigurationContext, RtgExecutor


@pytest.fixture(scope="module")
def case():
    return suite_case("threshold", n_pixels=32)


@pytest.fixture(scope="module")
def design(case):
    return case.compile()


@pytest.fixture(scope="module")
def fdct1():
    """fdct1 at 64 pixels and its compiled design: fused MAC loops."""
    fdct1_case = suite_case("fdct1", pixels=64)
    return fdct1_case, fdct1_case.compile()


def _elaborate(design, backend):
    """Run the design once under *backend*, returning the live
    SimDesign captured at configure time (still attachable after)."""
    images = prepare_images(design)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    executor = RtgExecutor(design.rtg, context, backend=backend)
    seen = []
    executor.on_configure = lambda d: seen.append(d)
    executor.run()
    assert seen
    return seen[0]


class TestValidation:
    def test_unknown_signal_rejected(self, design):
        sim_design = _elaborate(design, "event")
        fault = FaultDescriptor(fault_id="x", kind="stuck",
                                target="no_such_net")
        with pytest.raises(ValueError, match="no signal"):
            attach_fault(sim_design, fault)

    def test_bit_out_of_range_rejected(self, design):
        sim_design = _elaborate(design, "event")
        name, signal = next(iter(sim_design.sim._signals.items()))
        fault = FaultDescriptor(fault_id="x", kind="stuck", target=name,
                                bit=signal.width)
        with pytest.raises(ValueError, match="out of range"):
            attach_fault(sim_design, fault)

    def test_unknown_fsm_state_rejected(self, design):
        sim_design = _elaborate(design, "event")
        name = next(iter(sim_design.sim._signals))
        fault = FaultDescriptor(fault_id="x", kind="reg_flip", target=name,
                                state="NO_SUCH_STATE")
        with pytest.raises(ValueError, match="no FSM state"):
            attach_fault(sim_design, fault)

    def test_mem_flip_rejected_by_attach(self, design):
        sim_design = _elaborate(design, "event")
        fault = FaultDescriptor(fault_id="x", kind="mem_flip", target="img")
        with pytest.raises(ValueError, match="mem_flip"):
            attach_fault(sim_design, fault)

    def test_kernel_spec_rejects_mem_flip(self, design):
        sim_design = _elaborate(design, "event")
        signal = next(iter(sim_design.sim._signals.values()))
        fault = FaultDescriptor(fault_id="x", kind="mem_flip",
                                target=signal.name)
        with pytest.raises(ValueError, match="not signal faults"):
            kernel_spec(fault, signal)

    def test_attach_error_classifies_as_crash(self, design, case):
        # through the campaign path an unattachable descriptor is a
        # crash verdict, not an unhandled exception
        fault = FaultDescriptor(fault_id="x", kind="stuck",
                                target="no_such_net")
        result = run_injection(design, case.func, fault,
                               backend="event", max_cycles=10_000)
        assert result.verdict == "crash"
        assert "no signal" in result.note


class TestMechanisms:
    def test_compiled_backend_uses_the_kernel(self, design, case):
        target = output_adjacent_nets(design)[0]
        fault = FaultDescriptor(fault_id="k", kind="stuck", target=target,
                                bit=0, stuck_value=0)
        result = run_injection(design, case.func, fault,
                               backend="compiled", max_cycles=100_000)
        assert result.mechanism == "kernel"

    def test_event_backend_uses_a_watcher(self, design, case):
        target = output_adjacent_nets(design)[0]
        fault = FaultDescriptor(fault_id="w", kind="stuck", target=target,
                                bit=0, stuck_value=0)
        result = run_injection(design, case.func, fault,
                               backend="event", max_cycles=100_000)
        assert result.mechanism == "watcher"

    def test_detach_removes_the_watcher(self, design):
        sim_design = _elaborate(design, "event")
        name, signal = next(iter(sim_design.sim._signals.items()))
        fault = FaultDescriptor(fault_id="d", kind="stuck", target=name,
                                bit=0, stuck_value=1)
        before = list(signal.watchers)
        handle = attach_fault(sim_design, fault)
        assert handle.mechanism == "watcher"
        assert len(signal.watchers) == len(before) + 1
        handle.detach()
        assert signal.watchers == before

    def test_detach_removes_the_cycle_hook(self, design):
        sim_design = _elaborate(design, "event")
        name = next(iter(sim_design.sim._signals))
        state = next(iter(sim_design.fsm.states))
        fault = FaultDescriptor(fault_id="d", kind="reg_flip", target=name,
                                bit=0, state=state, cycle_lo=1, cycle_hi=4)
        before = len(sim_design.sim._cycle_hooks)
        with attach_fault(sim_design, fault) as handle:
            assert handle.mechanism == "cycle-hook"
            assert len(sim_design.sim._cycle_hooks) == before + 1
        assert len(sim_design.sim._cycle_hooks) == before


class TestEquivalence:
    @staticmethod
    def _assert_agrees_with_event(design, case, backend):
        """The two mechanisms must be observationally identical: same
        fault, same stimulus => same verdict and same cycle count."""
        baseline = run_injection(design, case.func, None,
                                 backend="compiled")
        faults = FaultloadGenerator(design, seed=11,
                                    max_cycle=baseline.cycles) \
            .generate(6, kinds=("stuck", "reg_flip"))
        budget = max(baseline.cycles * 4, 1000)
        for fault in faults:
            kernel = run_injection(design, case.func, fault,
                                   backend=backend, max_cycles=budget)
            event = run_injection(design, case.func, fault,
                                  backend="event", max_cycles=budget)
            assert kernel.mechanism == "kernel", fault.describe()
            assert kernel.verdict == event.verdict, fault.describe()
            if kernel.verdict in ("masked", "sdc"):
                assert kernel.cycles == event.cycles, fault.describe()

    def test_event_and_compiled_agree_on_signal_faults(self, design, case):
        self._assert_agrees_with_event(design, case, "compiled")

    def test_event_and_traced_agree_on_signal_faults(self, design, case):
        self._assert_agrees_with_event(design, case, "traced")

    def test_an_armed_stuck_at_keeps_fusion(self, fdct1):
        """A stuck-at is an IR entry like any other, so the traced
        kernel keeps its fused loops with the fault armed."""
        _fdct1_case, fdct1_design = fdct1
        sim_design = _elaborate(fdct1_design, "traced")
        target = output_adjacent_nets(fdct1_design)[0]
        fault = FaultDescriptor(fault_id="s", kind="stuck", target=target,
                                bit=0, stuck_value=1)
        with attach_fault(sim_design, fault) as handle:
            assert handle.mechanism == "kernel"
            report = sim_design.sim.fusion_report()
            assert report is not None
            assert any(trace["kind"] == "loop"
                       for trace in report["traces"]), report


class TestFusedStuckAt:
    """Stuck-at faults inside fdct1's fused loops: on register outputs
    (a force after the commit) and on an op output (a force after the
    op) the traced kernel must give the event kernel's result."""

    @pytest.mark.parametrize("net, bit, value", [
        ("n_rt84_q", 26, 0), ("n_r_t3_q", 2, 1), ("n_rt12_q", 16, 1),
        ("n_tr_img_out_y", 0, 1),
    ])
    def test_traced_matches_event(self, fdct1, net, bit, value):
        fdct1_case, fdct1_design = fdct1
        fault = FaultDescriptor(fault_id=f"{net}[{bit}]", kind="stuck",
                                target=net, bit=bit, stuck_value=value)
        seen = {backend: run_injection(fdct1_design, fdct1_case.func, fault,
                                       fdct1_case.inputs(0), backend=backend,
                                       max_cycles=5_000)
                for backend in ("event", "traced")}
        assert seen["traced"].mechanism == "kernel"
        outcomes = {backend: (result.verdict, result.cycles, result.note)
                    for backend, result in seen.items()}
        assert len(set(outcomes.values())) == 1, outcomes
        assert outcomes["event"][0] != "masked", outcomes


#: the layer benchmark's fault-campaign pool (FaultloadGenerator seed,
#: size and kinds); tier-1 checks threshold's, the CI fault-smoke job
#: sets REPRO_INJECT_POOLS_FULL=1 to add fdct1's and hamming's
_POOL_SEED, _POOL_SIZE = 2005, 240
_POOL_APPS = ("threshold",) + (
    ("fdct1", "hamming")
    if os.environ.get("REPRO_INJECT_POOLS_FULL") == "1" else ())


class TestInjectPoolParity:
    @pytest.mark.parametrize("app", _POOL_APPS)
    def test_every_kernel_agrees_on_the_pool(self, app):
        """Every stuck/reg_flip fault of the pool: event, compiled and
        traced (with fusion kept) give one verdict, cycle count and
        first mismatching word."""
        pool_case = suite_case(app)
        pool_design = pool_case.compile()
        inputs = pool_case.inputs(0)
        faults = [fault for fault in FaultloadGenerator(
                      pool_design, seed=_POOL_SEED).generate(
                      _POOL_SIZE, kinds=("stuck", "reg_flip", "mem_flip"))
                  if fault.kind in ("stuck", "reg_flip")]
        assert faults
        baseline = run_injection(pool_design, pool_case.func, None, inputs,
                                 backend="event")
        budget = max(baseline.cycles * 4, 1000)
        for fault in faults:
            seen = {
                backend: run_injection(pool_design, pool_case.func, fault,
                                       inputs, backend=backend,
                                       max_cycles=budget)
                for backend in ("event", "compiled", "traced")}
            outcomes = {backend: (result.verdict, result.cycles,
                                  result.note)
                        for backend, result in seen.items()}
            assert len(set(outcomes.values())) == 1, \
                (fault.describe(), outcomes)


    def test_batched_campaign_keeps_event_hooks(self):
        """A batched campaign runs threshold's stuck/reg_flip pool
        faults on the event kernel's hooks (watcher/cycle-hook), never
        in lanes, with the event campaign's verdicts and cycles."""
        pool_case = suite_case("threshold")
        pool_design = pool_case.compile()
        inputs = pool_case.inputs(0)
        faults = [fault for fault in FaultloadGenerator(
                      pool_design, seed=_POOL_SEED).generate(
                      _POOL_SIZE, kinds=("stuck", "reg_flip", "mem_flip"))
                  if fault.kind in ("stuck", "reg_flip")]
        assert faults
        reports = {backend: run_campaign(pool_design, pool_case.func,
                                         faults, inputs, backend=backend)
                   for backend in ("event", "batched")}
        hooks = {"stuck": "watcher", "reg_flip": "cycle-hook"}
        for event, batched in zip(reports["event"].results,
                                  reports["batched"].results):
            assert batched.fault is event.fault
            assert batched.mechanism == hooks[batched.fault.kind], \
                batched.fault.describe()
            assert (batched.verdict, batched.cycles) == \
                (event.verdict, event.cycles), batched.fault.describe()


class TestConstantNetStuckAt:
    """A stuck-at-1 on a constant operator's output net: the pre-run
    settle computes its fanout from the unforced constant, so the
    compiled kernels must force it and re-settle before the first edge
    (these four once came out masked or late on compiled and traced)."""

    @pytest.mark.parametrize("app, net, bits", [
        ("hamming", "n_k7_y", (11,)),
        ("threshold", "n_k3_y", (7, 30, 14)),
    ])
    def test_every_kernel_agrees(self, app, net, bits):
        case = suite_case(app)
        design = case.compile()
        inputs = case.inputs(0)
        for bit in bits:
            fault = FaultDescriptor(fault_id=f"{net}[{bit}]", kind="stuck",
                                    target=net, bit=bit, stuck_value=1)
            outcomes = {
                backend: run_injection(design, case.func, fault, inputs,
                                       backend=backend, max_cycles=20_000)
                for backend in ("event", "compiled", "traced")}
            assert outcomes["compiled"].mechanism == "kernel"
            assert outcomes["traced"].mechanism == "kernel"
            seen = {backend: (result.verdict, result.cycles)
                    for backend, result in outcomes.items()}
            assert len(set(seen.values())) == 1, (fault.describe(), seen)
            assert seen["event"][0] == "sdc"
