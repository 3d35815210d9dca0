"""Tests for fault injection (qualifying the infrastructure itself)."""

import os

import pytest

from repro.apps import (build_hamming, build_threshold, hamming_decode_kernel,
                        hamming_inputs, suite_case, threshold_inputs,
                        threshold_kernel)
from repro.compiler import MemorySpec, compile_function
from repro.core import verify_design
from repro.core.faults import (CampaignResult, Fault, enumerate_faults,
                               inject_fault, run_campaign)
from repro.sim.errors import SimulationError


@pytest.fixture(scope="module")
def design():
    return build_threshold(64)


@pytest.fixture(scope="module")
def inputs():
    return threshold_inputs(64)


class TestEnumeration:
    def test_covers_all_kinds(self, design):
        config = design.configurations[0]
        faults = enumerate_faults(config.datapath, config.fsm)
        kinds = {fault.kind for fault in faults}
        assert kinds == {"const_value", "cmp_op", "mux_swap",
                         "branch_swap", "stuck_control",
                         "wrong_state_order"}

    def test_limit_per_kind(self, design):
        config = design.configurations[0]
        faults = enumerate_faults(config.datapath, config.fsm,
                                  limit_per_kind=1)
        kinds = [fault.kind for fault in faults]
        assert len(kinds) == len(set(kinds))

    def test_done_never_a_stuck_target(self, design):
        config = design.configurations[0]
        faults = enumerate_faults(config.datapath, config.fsm)
        assert not any(fault.kind == "stuck_control"
                       and fault.detail == "done" for fault in faults)


class TestInjection:
    def test_original_design_untouched(self, design, inputs):
        config = design.configurations[0]
        fault = Fault("cmp_op", "u0_lt", "lt -> le")
        inject_fault(design, fault)
        # the original still verifies
        assert verify_design(design, threshold_kernel, inputs).passed

    def test_injected_cmp_fault_changes_behaviour(self, design, inputs):
        mutated = inject_fault(design, Fault("cmp_op", "u0_lt"))
        assert mutated.configurations[0].datapath \
            .components["u0_lt"].type == "le"

    def test_multi_configuration_rejected(self):
        arrays = {"a": MemorySpec(16, 8, role="output")}

        def two(a, n=8):
            for i in range(n):
                a[i] = i
            for j in range(n):
                a[j] = a[j] + 1

        two_cfg = compile_function(two, arrays, partition_after=[0])
        with pytest.raises(ValueError, match="single-configuration"):
            inject_fault(two_cfg, Fault("cmp_op", "u0_lt"))

    def test_unknown_kind_rejected(self, design):
        with pytest.raises(ValueError, match="unknown fault kind"):
            inject_fault(design, Fault("cosmic_ray", "u0_lt"))


class TestCampaign:
    def test_baseline_must_pass(self, design):
        def wrong(pixels_in, pixels_out, n_pixels=64, cut=128):
            for i in range(n_pixels):
                pixels_out[i] = 1

        with pytest.raises(ValueError, match="baseline"):
            run_campaign(design, wrong, threshold_inputs(64))

    def test_majority_of_faults_killed(self, design, inputs):
        result = run_campaign(design, threshold_kernel, inputs,
                              max_cycles=200_000)
        assert result.total > 20
        assert result.kill_rate >= 0.7
        assert "killed" in result.summary()

    def test_specific_faults_detected(self, design, inputs):
        # a loop-bound bug and a swapped branch are must-kills
        for fault in (Fault("cmp_op", "u0_lt", "lt -> le"),
                      Fault("branch_swap", "S_for_head_0")):
            result = run_campaign(design, threshold_kernel, inputs,
                                  faults=[fault], max_cycles=200_000)
            assert result.verdicts[0].killed, fault.describe()

    def test_boundary_stimulus_kills_threshold_mutants(self, design):
        """The 128^1 constant and ge->gt survivors are stimulus-masked:
        an image containing the exact threshold value kills them."""
        boundary_faults = [Fault("const_value", "k1", "value 128 ^ 1"),
                           Fault("cmp_op", "u1_ge", "ge -> gt")]
        plain = threshold_inputs(64)
        weak = run_campaign(design, threshold_kernel, plain,
                            faults=boundary_faults, max_cycles=200_000)
        assert weak.kill_rate < 1.0  # masked under generic stimulus

        image = plain["pixels_in"].copy()
        image.write(0, 128)  # boundary value present
        strong = run_campaign(design, threshold_kernel,
                              {"pixels_in": image},
                              faults=boundary_faults, max_cycles=200_000)
        assert strong.kill_rate == 1.0

    def test_sampling(self, design, inputs):
        result = run_campaign(design, threshold_kernel, inputs,
                              sample=5, seed=1, max_cycles=200_000)
        assert result.total == 5

    def test_hamming_campaign(self):
        design = build_hamming(32)
        result = run_campaign(design, hamming_decode_kernel,
                              hamming_inputs(32), limit_per_kind=3,
                              max_cycles=200_000)
        assert result.kill_rate >= 0.6


#: fdct1 has 388 seed mutants, ~40 s for both loops below; tier-1 takes
#: the first two of each kind and the CI fault-smoke job sets
#: REPRO_MUTANTS_FULL=1 to compare all of them
_FDCT1_LIMIT = None if os.environ.get("REPRO_MUTANTS_FULL") == "1" else 2

#: above every hang budget below (4 x baseline cycles, at least 1000),
#: so a mutant finishing between budget and cap would show as a diff
_EQUIVALENCE_CAP = 1500


def _reference_verdicts(design, func, inputs, faults):
    """The seed runner's semantics: verify each mutated copy, count
    simulation and mutation errors as crashes."""
    verdicts = []
    for fault in faults:
        try:
            outcome = verify_design(inject_fault(design, fault), func,
                                    inputs, max_cycles=_EQUIVALENCE_CAP)
        except (SimulationError, ValueError, KeyError):
            verdicts.append("crashed")
            continue
        verdicts.append("survived" if outcome.passed else "detected")
    return verdicts


class TestVerdictEquivalence:
    """The adapter over repro.inject maps sdc/masked/hang/crash onto the
    seed runner's detected/survived/crashed, mutant for mutant."""

    @pytest.mark.parametrize("app, sizes, limit", [
        ("fdct1", {"pixels": 64}, _FDCT1_LIMIT),
        ("hamming", {"n_words": 8}, None),
        ("threshold", {"n_pixels": 16}, None),
    ], ids=["fdct1", "hamming", "threshold"])
    def test_adapter_matches_the_seed_semantics(self, app, sizes, limit):
        case = suite_case(app, **sizes)
        design = case.compile()
        inputs = case.inputs(0)
        config = design.configurations[0]
        faults = enumerate_faults(config.datapath, config.fsm,
                                  limit_per_kind=limit)
        result = run_campaign(design, case.func, inputs, faults=faults,
                              max_cycles=_EQUIVALENCE_CAP)
        assert [verdict.fault for verdict in result.verdicts] == faults
        got = [verdict.verdict for verdict in result.verdicts]
        assert got == _reference_verdicts(design, case.func, inputs, faults)
        assert {"detected", "survived", "crashed"} <= set(got)
