"""Unit tests for fault models and fault site enumeration."""

import pytest

from repro.faults import (
    FaultSite,
    StuckAtFault,
    TransitionFault,
    TransitionKind,
    all_stuck_at_faults,
    all_transition_faults,
    enumerate_fault_sites,
)
from repro.logic import Logic
from repro.simulation import build_model
from repro.simulation.model import NodeKind


def test_fault_universe_sizes_match(c17_model):
    stuck = all_stuck_at_faults(c17_model)
    transition = all_transition_faults(c17_model)
    # Two faults per terminal, identical counts for both models (paper, §5).
    assert len(stuck) == len(transition)
    sites = enumerate_fault_sites(c17_model)
    assert len(stuck) == 2 * len(sites)


def test_c17_site_count(c17_model):
    sites = enumerate_fault_sites(c17_model)
    # 5 PIs + 6 gate outputs + 12 gate input pins = 23 terminals.
    assert len(sites) == 23


def test_checkpoint_sites_are_subset(c17_model):
    checkpoints = enumerate_fault_sites(c17_model, include_checkpoints_only=True)
    full = enumerate_fault_sites(c17_model)
    assert set(checkpoints) <= set(full)
    assert len(checkpoints) < len(full)


def test_stuck_at_validation():
    with pytest.raises(ValueError):
        StuckAtFault(site=FaultSite(node=0), value=2)


def test_transition_kind_semantics():
    str_fault = TransitionKind.SLOW_TO_RISE
    assert str_fault.initial_value is Logic.ZERO
    assert str_fault.final_value is Logic.ONE
    assert str_fault.equivalent_stuck_value == 0
    stf = TransitionKind.SLOW_TO_FALL
    assert stf.initial_value is Logic.ONE
    assert stf.equivalent_stuck_value == 1


def test_transition_to_stuck_mapping():
    fault = TransitionFault(site=FaultSite(node=3), kind=TransitionKind.SLOW_TO_RISE)
    stuck = fault.capture_frame_stuck_at
    assert stuck.site == fault.site
    assert stuck.value == 0


def test_describe_names_nets(c17_model):
    node = c17_model.node_of_net["N10"]
    fault = StuckAtFault(site=FaultSite(node=node), value=1)
    assert "N10" in fault.describe(c17_model)
    pin_fault = StuckAtFault(site=FaultSite(node=node, pin=0), value=1)
    assert "in0" in pin_fault.describe(c17_model)


def test_fault_ordering_is_stable(c17_model):
    faults = all_stuck_at_faults(c17_model)
    assert faults == sorted(faults)


def test_no_faults_on_tie_cells():
    from repro.netlist import NetlistBuilder

    builder = NetlistBuilder("ties")
    a = builder.input("a")
    one = builder.tie1()
    builder.output_from(builder.and_([a, one]), "y")
    model = build_model(builder.build())
    const_nodes = {n.index for n in model.nodes if n.kind in (NodeKind.CONST0, NodeKind.CONST1)}
    for site in enumerate_fault_sites(model):
        if site.pin is None:
            assert site.node not in const_nodes
