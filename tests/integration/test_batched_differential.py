"""Batched execution differential: batch-of-N must equal N serial runs.

The batched backend advances N independent stimulus sets through one
generated kernel, swapping struct-of-arrays signal columns and memory
words between lanes.  That machinery is pure bookkeeping: every lane
must produce bit-for-bit the cycles and memory contents a serial run of
the same stimulus produces — under *every* registered backend, since
they are all proven equal to each other elsewhere.  The divergence case
matters most: ``popcount``'s cycle count is data-dependent, so lanes
drift apart across quantum boundaries and the cohort partitioning has
to keep them straight.
"""

import pytest

from repro.apps import CASE_BUILDERS, suite_case
from repro.core import prepare_images, verify_design_batch
from repro.rtg import (ReconfigurationContext, RtgBatchExecutor,
                       RtgExecutor)
from repro.sim import (SIMULATOR_BACKENDS, BatchUnsupported, LaneBatch,
                       create_simulator)

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

BATCH = 4


def test_batched_backend_registered():
    assert "batched" in SIMULATOR_BACKENDS
    assert create_simulator("batched").fuse
    assert create_simulator("traced").fuse


def _serial(design, inputs, backend):
    images = prepare_images(design, inputs)
    context = ReconfigurationContext.from_rtg(design.rtg, initial=images)
    result = RtgExecutor(design.rtg, context, backend=backend).run()
    memories = {name: tuple(context.memory(name).words())
                for name in context.memories}
    return result.total_cycles, memories


def _batched(design, inputs_list, **kwargs):
    contexts = [
        ReconfigurationContext.from_rtg(
            design.rtg, initial=prepare_images(design, inputs))
        for inputs in inputs_list
    ]
    report = RtgBatchExecutor(design.rtg, contexts, **kwargs).run()
    lanes = []
    for context, lane in zip(contexts, report.lanes):
        memories = {name: tuple(context.memory(name).words())
                    for name in context.memories}
        lanes.append((lane.total_cycles, memories))
    return report, lanes


@pytest.mark.parametrize("name", sorted(CASE_BUILDERS))
def test_batch_equals_serial_every_backend(name):
    """One batch of BATCH seeds vs BATCH serial runs per backend."""
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    report, lanes = _batched(design, inputs_list)
    assert report.batch_size == BATCH
    for backend in sorted(SIMULATOR_BACKENDS):
        for seed, (cycles, memories) in enumerate(lanes):
            ref_cycles, ref_memories = _serial(design, inputs_list[seed],
                                               backend)
            assert cycles == ref_cycles, \
                f"{name}: lane {seed} took {cycles} cycles, " \
                f"{backend} serial took {ref_cycles}"
            assert memories == ref_memories, \
                f"{name}: lane {seed} memories diverge from {backend}"


def test_lane_divergence_stays_bit_exact():
    """popcount lanes finish at data-dependent cycle counts; a small
    quantum forces many swap boundaries while lanes sit in different
    FSM states — the cohort partitioning must never mix lanes up."""
    case = suite_case("popcount", **SMALL_SIZES["popcount"])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    report, lanes = _batched(design, inputs_list, quantum=64)
    cycle_counts = {cycles for cycles, _ in lanes}
    assert len(cycle_counts) > 1, \
        "popcount stopped being data-dependent; pick another design"
    assert report.rounds > 1
    for seed, (cycles, memories) in enumerate(lanes):
        ref_cycles, ref_memories = _serial(design, inputs_list[seed],
                                           "traced")
        assert cycles == ref_cycles
        assert memories == ref_memories


def test_multi_configuration_batch():
    """fdct2 reconfigures mid-run: the batch must regroup lanes per
    configuration and elaborate each configuration once, not per lane."""
    case = suite_case("fdct2", **SMALL_SIZES["fdct2"])
    design = case.compile()
    assert design.multi_configuration
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    report, lanes = _batched(design, inputs_list)
    assert report.elaborations == len(design.rtg.configurations)
    for seed, (cycles, memories) in enumerate(lanes):
        ref_cycles, ref_memories = _serial(design, inputs_list[seed],
                                           "traced")
        assert cycles == ref_cycles
        assert memories == ref_memories


@pytest.mark.parametrize("name", ["fdct1", "hamming"])
def test_verify_design_batch_passes(name):
    case = suite_case(name, **SMALL_SIZES[name])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(BATCH)]
    result = verify_design_batch(design, case.func, inputs_list)
    assert result.passed, result.summary()
    assert result.batched
    assert result.batch_size == BATCH
    assert len(result.lanes) == BATCH
    assert result.lane_seconds > 0
    assert 0.0 <= result.lanes_converged <= 1.0
    for lane in result.lanes:
        assert lane.passed
        assert lane.backend == "batched"


def test_verify_design_batch_falls_back_when_unsupported(monkeypatch):
    """Designs the fast path cannot compile (e.g. non-levelizable
    fuzz outputs) raise BatchUnsupported; the batch API must degrade
    to per-lane serial runs, not fail."""
    from repro.rtg import executor as executor_mod

    def refuse(self):
        raise BatchUnsupported("forced for test")

    monkeypatch.setattr(executor_mod.RtgBatchExecutor, "run", refuse)
    case = suite_case("fir", **SMALL_SIZES["fir"])
    design = case.compile()
    inputs_list = [case.inputs(seed) for seed in range(2)]
    result = verify_design_batch(design, case.func, inputs_list)
    assert result.passed, result.summary()
    assert not result.batched
    assert "forced for test" in result.fallback_reason
    assert len(result.lanes) == 2
    for lane in result.lanes:
        assert lane.passed


class TestLaneBatchValidation:
    """LaneBatch refuses malformed lane memory sets up front —
    mis-shaped lanes must be a loud BatchUnsupported, never a
    silently-wrong simulation."""

    def _design(self):
        from repro.translate import build_simulation
        from repro.util.files import MemoryImage

        case = suite_case("fir", **SMALL_SIZES["fir"])
        compiled = case.compile()
        name, ref = next(iter(sorted(compiled.rtg.configurations.items())))
        scratch = {
            decl.name: MemoryImage(decl.width, decl.depth, name=decl.name)
            for decl in compiled.rtg.memories.values()
        }
        design = build_simulation(ref.datapath, ref.fsm, memories=scratch,
                                  backend="batched")
        return compiled, design

    def _lane(self, compiled, seed=0):
        from repro.apps import suite_case as _case

        case = _case("fir", **SMALL_SIZES["fir"])
        images = prepare_images(compiled, case.inputs(seed))
        context = ReconfigurationContext.from_rtg(compiled.rtg,
                                                  initial=images)
        return dict(context.memories)

    def test_missing_memory_is_unsupported(self):
        compiled, design = self._design()
        try:
            lane = self._lane(compiled)
            lane.pop(next(iter(sorted(lane))))
            with pytest.raises(BatchUnsupported, match="missing"):
                LaneBatch(design.sim, design.done_signal, design.memories,
                          [lane])
        finally:
            design.release()

    def test_shape_mismatch_is_unsupported(self):
        from repro.util.files import MemoryImage

        compiled, design = self._design()
        try:
            lane = self._lane(compiled)
            name = next(iter(sorted(lane)))
            bad = MemoryImage(lane[name].width, lane[name].depth + 1,
                              name=name)
            lane[name] = bad
            with pytest.raises(BatchUnsupported, match="design binds"):
                LaneBatch(design.sim, design.done_signal, design.memories,
                          [lane])
        finally:
            design.release()

    def test_aliased_bound_image_is_unsupported(self):
        compiled, design = self._design()
        try:
            lane = self._lane(compiled)
            name = next(iter(sorted(lane)))
            lane[name] = design.memories[name]
            with pytest.raises(BatchUnsupported, match="alias"):
                LaneBatch(design.sim, design.done_signal, design.memories,
                          [lane])
        finally:
            design.release()

    def test_armed_fault_spec_is_unsupported(self):
        """A fault spec's one-shot flip latch cannot serve N lanes, so a
        faulted kernel is refused before any lane word moves."""
        from repro.inject import FaultDescriptor, attach_fault

        compiled, design = self._design()
        try:
            lanes = [self._lane(compiled, seed) for seed in range(2)]
            before = [{name: image.words() for name, image in lane.items()}
                      for lane in lanes]
            signal = next(name for name in sorted(design.sim.signals)
                          if name.startswith("n_") and name.endswith("_q"))
            fault = FaultDescriptor(fault_id="s", kind="stuck",
                                    target=signal, bit=0, stuck_value=1)
            with attach_fault(design, fault) as handle:
                assert handle.mechanism == "kernel"
                batch = LaneBatch(design.sim, design.done_signal,
                                  design.memories, lanes)
                with pytest.raises(BatchUnsupported, match="fault spec"):
                    batch.run()
            assert [{name: image.words() for name, image in lane.items()}
                    for lane in lanes] == before
        finally:
            design.release()
