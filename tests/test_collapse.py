"""Unit tests for structural fault-equivalence collapsing."""

import random

import pytest

from repro.circuits import random_sequential
from repro.faults import (
    FaultSite,
    StuckAtFault,
    all_stuck_at_faults,
    all_transition_faults,
    collapse_faults,
    enumerate_fault_sites,
    equivalent_faults,
)
from repro.faults.collapse import fault_order_key
from repro.netlist import GateType, NetlistBuilder
from repro.simulation import build_model


def single_gate_model(gtype, fanin=2):
    builder = NetlistBuilder("g")
    inputs = builder.inputs("a", fanin)
    builder.output_from(builder.gate(gtype, inputs), "y")
    return build_model(builder.build())


def test_and_gate_equivalence():
    model = single_gate_model(GateType.AND)
    faults = all_stuck_at_faults(model)
    result = collapse_faults(model, faults)
    gate = next(n for n in model.nodes if n.gtype is GateType.AND)
    out_sa0 = StuckAtFault(site=FaultSite(node=gate.index), value=0)
    in0_sa0 = StuckAtFault(site=FaultSite(node=gate.index, pin=0), value=0)
    in1_sa0 = StuckAtFault(site=FaultSite(node=gate.index, pin=1), value=0)
    assert result.class_of[out_sa0] == result.class_of[in0_sa0] == result.class_of[in1_sa0]
    # sa1 faults stay distinct from each other.
    out_sa1 = StuckAtFault(site=FaultSite(node=gate.index), value=1)
    in0_sa1 = StuckAtFault(site=FaultSite(node=gate.index, pin=0), value=1)
    assert result.class_of[out_sa1] != result.class_of[in0_sa1]


def test_nand_gate_equivalence_inverts_polarity():
    model = single_gate_model(GateType.NAND)
    gate = next(n for n in model.nodes if n.gtype is GateType.NAND)
    result = collapse_faults(model, all_stuck_at_faults(model))
    out_sa1 = StuckAtFault(site=FaultSite(node=gate.index), value=1)
    in0_sa0 = StuckAtFault(site=FaultSite(node=gate.index, pin=0), value=0)
    assert result.class_of[out_sa1] == result.class_of[in0_sa0]


def test_inverter_chain_collapses_heavily():
    builder = NetlistBuilder("chain")
    net = builder.input("a")
    for _ in range(5):
        net = builder.inv(net)
    builder.output_from(net, "y")
    model = build_model(builder.build())
    result = collapse_faults(model, all_stuck_at_faults(model))
    # A fanout-free inverter chain collapses to exactly two classes... plus the
    # output buffer introduced by output_from.
    assert len(result.representatives) <= 4
    assert result.collapse_ratio > 3.0


def test_fanout_stem_not_merged_with_branches():
    builder = NetlistBuilder("fanout")
    a = builder.input("a")
    b = builder.input("b")
    stem = builder.and_([a, b], output="stem")
    builder.output_from(builder.and_([stem, a]), "y0")
    builder.output_from(builder.or_([stem, b]), "y1")
    model = build_model(builder.build())
    result = collapse_faults(model, all_stuck_at_faults(model))
    stem_node = model.node_of_net["stem"]
    branches = [n for n in model.nodes if n.fanin and stem_node in n.fanin]
    # The two branch input-pin faults must not be equivalent to each other.
    pin_faults = []
    for branch in branches:
        pin = branch.fanin.index(stem_node)
        pin_faults.append(StuckAtFault(site=FaultSite(node=branch.index, pin=pin), value=1))
    assert result.class_of[pin_faults[0]] != result.class_of[pin_faults[1]]


def test_transition_collapse_matches_stuck_at_counts(c17_model):
    stuck = collapse_faults(c17_model, all_stuck_at_faults(c17_model))
    transition = collapse_faults(c17_model, all_transition_faults(c17_model))
    # The paper notes both models share the same collapsed fault count.
    assert len(stuck.representatives) == len(transition.representatives)


def test_collapse_covers_every_fault(c17_model):
    faults = all_stuck_at_faults(c17_model)
    result = collapse_faults(c17_model, faults)
    assert set(result.class_of) == set(faults)
    assert set(result.class_of.values()) == set(result.representatives)


def test_equivalent_faults_symmetry(c17_model):
    fault = all_stuck_at_faults(c17_model)[5]
    klass = equivalent_faults(c17_model, fault)
    assert fault in klass
    for other in klass:
        assert fault in equivalent_faults(c17_model, other)


def test_empty_collapse():
    from repro.circuits import c17
    model = build_model(c17())
    empty = collapse_faults(model, [])
    assert empty.representatives == []
    assert empty.collapse_ratio == 1.0


# ------------------------------------------------------------- sort order
_ORDER_MODELS: dict[str, object] = {}


def _order_model(name):
    """``hier-soc-10k`` or a seeded random sequential circuit, built once."""
    if name not in _ORDER_MODELS:
        if name == "hier-soc-10k":
            from repro.api.design import prepare_from_spec
            from repro.hier.designs import register_hier_designs

            register_hier_designs()
            _ORDER_MODELS[name] = prepare_from_spec(name).model
        else:
            _ORDER_MODELS[name] = build_model(random_sequential(6, 10, 80, 4, seed=5))
    return _ORDER_MODELS[name]


@pytest.mark.parametrize("universe", [all_stuck_at_faults, all_transition_faults])
@pytest.mark.parametrize("design", ["hier-soc-10k", "random"])
def test_key_sort_is_the_dataclass_order(design, universe):
    """The precomputed sort key orders faults, class representatives and
    sites exactly as the dataclasses' own ``__lt__`` does."""
    model = _order_model(design)
    assert enumerate_fault_sites(model) == sorted(enumerate_fault_sites(model))
    shuffled = universe(model)
    random.Random(3).shuffle(shuffled)
    assert sorted(shuffled, key=fault_order_key) == sorted(shuffled)
    result = collapse_faults(model, shuffled)
    assert result.representatives == sorted(result.representatives)
    members: dict[object, list] = {}
    for fault, representative in result.class_of.items():
        members.setdefault(representative, []).append(fault)
    assert all(rep == min(klass) for rep, klass in members.items())


def test_equivalent_faults_come_in_dataclass_order():
    model = _order_model("random")
    for universe in (all_stuck_at_faults, all_transition_faults):
        for fault in random.Random(4).sample(universe(model), 12):
            klass = equivalent_faults(model, fault)
            assert klass == sorted(klass)
