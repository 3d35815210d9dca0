"""Tests for seeded faultload generation and JSON replay."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import suite_case
from repro.core.faults import MUTATION_KINDS, Fault
from repro.inject import (FaultDescriptor, FaultloadGenerator,
                          load_faultload, output_adjacent_nets,
                          save_faultload)


@pytest.fixture(scope="module")
def design():
    return suite_case("threshold", n_pixels=32).compile()


class TestDescriptor:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultDescriptor(fault_id="x", kind="gamma_ray", target="n")

    def test_rejects_bad_stuck_value(self):
        with pytest.raises(ValueError, match="stuck_value"):
            FaultDescriptor(fault_id="x", kind="stuck", target="n",
                            stuck_value=2)

    def test_rejects_negative_bit(self):
        with pytest.raises(ValueError, match="bit"):
            FaultDescriptor(fault_id="x", kind="stuck", target="n", bit=-1)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown descriptor field"):
            FaultDescriptor.from_dict({"fault_id": "x", "kind": "stuck",
                                       "target": "n", "polarity": 1})

    def test_describe_mentions_the_target(self):
        fault = FaultDescriptor(fault_id="f1", kind="reg_flip",
                                target="n_reg_q", bit=3, state="S2",
                                cycle_lo=5, cycle_hi=9)
        text = fault.describe()
        assert "n_reg_q" in text and "S2" in text and "[5, 9]" in text


class TestGenerator:
    def test_same_seed_same_faultload(self, design):
        a = FaultloadGenerator(design, seed=7, max_cycle=200).generate(40)
        b = FaultloadGenerator(design, seed=7, max_cycle=200).generate(40)
        assert a == b

    def test_different_seed_differs(self, design):
        a = FaultloadGenerator(design, seed=7, max_cycle=200).generate(40)
        b = FaultloadGenerator(design, seed=8, max_cycle=200).generate(40)
        assert a != b

    def test_kinds_filter(self, design):
        faults = FaultloadGenerator(design, seed=0, max_cycle=100) \
            .generate(10, kinds=("mem_flip",))
        assert all(fault.kind == "mem_flip" for fault in faults)

    def test_unknown_kind_rejected(self, design):
        generator = FaultloadGenerator(design, seed=0)
        with pytest.raises(ValueError, match="unknown fault kind"):
            generator.generate(1, kinds=("cosmic",))

    def test_windows_respect_max_cycle(self, design):
        faults = FaultloadGenerator(design, seed=3, max_cycle=50) \
            .generate(30, kinds=("reg_flip",))
        assert all(1 <= fault.cycle_lo <= fault.cycle_hi <= 50
                   for fault in faults)

    def test_targets_exist_in_the_design(self, design):
        datapath = design.configurations[0].datapath
        faults = FaultloadGenerator(design, seed=1, max_cycle=100) \
            .generate(30)
        for fault in faults:
            if fault.kind == "mem_flip":
                assert fault.target in design.arrays
            else:
                assert fault.target in datapath.nets


class TestSerialisation:
    def test_round_trip(self, design, tmp_path):
        faults = FaultloadGenerator(design, seed=5, max_cycle=100) \
            .generate(12)
        path = save_faultload(faults, tmp_path / "load.json")
        assert load_faultload(path) == faults

    def test_bare_descriptor_and_bare_list_load(self, tmp_path):
        fault = FaultDescriptor(fault_id="f0", kind="stuck", target="n")
        single = tmp_path / "one.json"
        single.write_text('{"fault_id": "f0", "kind": "stuck", '
                          '"target": "n"}')
        assert load_faultload(single) == [fault]
        listed = tmp_path / "list.json"
        listed.write_text('[{"fault_id": "f0", "kind": "stuck", '
                          '"target": "n"}]')
        assert load_faultload(listed) == [fault]

    def test_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('"just a string"')
        with pytest.raises(ValueError, match="not a faultload"):
            load_faultload(path)


class TestOutputAdjacent:
    def test_finds_a_net_for_every_injectable_app(self):
        # every single-configuration app writes an output memory, so
        # each must expose at least one SDC-canary target for the CI
        # smoke gate; multi-configuration designs are refused
        from repro.apps import CASE_BUILDERS

        sizes = {"fdct1": {"pixels": 64}, "fdct2": {"pixels": 64},
                 "idct": {"pixels": 64}, "hamming": {"n_words": 16},
                 "fir": {"n_out": 16, "taps": 4}, "matmul": {"n": 4},
                 "threshold": {"n_pixels": 32}, "popcount": {"n_words": 16}}
        for name in CASE_BUILDERS:
            compiled = suite_case(name, **sizes.get(name, {})).compile()
            if compiled.multi_configuration:
                with pytest.raises(ValueError,
                                   match="single-configuration"):
                    output_adjacent_nets(compiled)
                continue
            nets = output_adjacent_nets(compiled)
            assert nets, f"{name} exposes no output-adjacent nets"
            datapath = compiled.configurations[0].datapath
            assert all(net in datapath.nets for net in nets)


class TestMutation:
    def test_generator_draws_seed_mutants(self, design):
        config = design.configurations[0]
        faults = FaultloadGenerator(design, seed=2) \
            .generate(12, kinds=("mutation",))
        assert {fault.kind for fault in faults} == {"mutation"}
        for fault in faults:
            assert fault.mutation.kind in MUTATION_KINDS
            assert fault.target in config.datapath.components \
                or fault.target in config.fsm.states

    def test_default_kinds_leave_mutations_out(self, design):
        faults = FaultloadGenerator(design, seed=2).generate(30)
        assert "mutation" not in {fault.kind for fault in faults}

    def test_describe_names_the_seed_fault(self):
        fault = FaultDescriptor.from_mutation(
            Fault("cmp_op", "u0_lt", "lt -> le"), "f3")
        assert fault.describe() == "f3: mutation cmp_op @ u0_lt (lt -> le)"

    def test_rejects_an_unknown_mutation_kind(self):
        with pytest.raises(ValueError, match="unknown mutation kind"):
            FaultDescriptor(fault_id="x", kind="mutation", target="k1",
                            detail="cosmic_ray: boom")


_mutations = st.builds(Fault, st.sampled_from(MUTATION_KINDS),
                       st.text(min_size=1), st.text())

#: one valid descriptor per kind, as the JSON reader sees it
_VALID = {"fault_id": "f0", "kind": "mutation", "target": "k1",
          "detail": "const_value: value 5 ^ 1"}


def _load(tmp_path, document):
    path = tmp_path / "load.json"
    path.write_text(json.dumps(document))
    return load_faultload(path)


class TestReaderProperties:
    @settings(max_examples=40, deadline=None)
    @given(fault=_mutations, fault_id=st.text())
    def test_mutation_round_trips(self, tmp_path_factory, fault, fault_id):
        descriptor = FaultDescriptor.from_mutation(fault, fault_id)
        path = tmp_path_factory.mktemp("load") / "load.json"
        save_faultload([descriptor], path)
        [loaded] = load_faultload(path)
        assert loaded == descriptor
        assert loaded.mutation == fault

    @settings(max_examples=80, deadline=None)
    @given(field=st.sampled_from(sorted(FaultDescriptor.__dataclass_fields__)),
           value=st.one_of(st.none(), st.booleans(), st.integers(),
                           st.floats(allow_nan=False), st.text(),
                           st.lists(st.integers(), max_size=2),
                           st.dictionaries(st.text(), st.integers(),
                                           max_size=2)))
    def test_malformed_fields_raise_value_error(self, tmp_path_factory,
                                                field, value):
        # whatever a field holds, the reader accepts it or raises
        # ValueError — never TypeError, KeyError or AttributeError
        document = dict(_VALID, **{field: value})
        try:
            _load(tmp_path_factory.mktemp("load"), document)
        except ValueError:
            pass

    @pytest.mark.parametrize("document", [
        dict(_VALID, detail="cosmic_ray: boom"),  # unknown mutation kind
        {key: value for key, value in _VALID.items() if key != "target"},
        dict(_VALID, target=""),
        dict(_VALID, bit="3"),  # wrong field type
        dict(_VALID, cycle_lo=True),
        {"faults": [_VALID, 7]},
        {"faults": {"fault_id": "f0"}},
        [[_VALID]],
    ], ids=["unknown-mutation", "missing-target", "empty-target",
            "str-bit", "bool-cycle", "non-object-entry", "faults-not-list",
            "nested-list"])
    def test_malformed_documents_raise_value_error(self, tmp_path,
                                                   document):
        with pytest.raises(ValueError):
            _load(tmp_path, document)
