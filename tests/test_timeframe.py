"""Unit tests for time-frame expansion."""

import pytest

from repro.atpg import TestSetup, build_timeframe_view
from repro.clocking import (
    CapturePulse,
    ClockDomain,
    ClockDomainMap,
    NamedCaptureProcedure,
    external_clock_procedures,
)
from repro.dft import insert_scan
from repro.faults import FaultSite, TransitionFault, TransitionKind
from repro.logic import Logic
from repro.netlist import NetlistBuilder
from repro.simulation import build_model


@pytest.fixture()
def simple_design():
    builder = NetlistBuilder("simple")
    clk = builder.clock("clk")
    d = builder.input("d")
    q0 = builder.flop(d, clk, q="q0", name="ff0")
    inv = builder.inv(q0, output="inv_q0")
    builder.flop(inv, clk, q="q1", name="ff1")
    builder.output_from("q1", "out")
    netlist, scan = insert_scan(builder.build(), num_chains=1)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(netlist, [ClockDomain("clk", "clk", 100.0)])
    return netlist, model, domain_map


def two_pulse_setup(hold_pis=True, observe_pos=True):
    return TestSetup(
        name="t",
        procedures=external_clock_procedures(["clk"], max_pulses=2),
        observe_pos=observe_pos,
        hold_pis=hold_pis,
        scan_enable_net="scan_en",
    )


class TestExpansionStructure:
    def test_two_frames_share_held_pis(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup(hold_pis=True)
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        assert view.num_frames == 2
        d_node = model.node_of_net["d"]
        assert view.frame_map[0][d_node] == view.frame_map[1][d_node]

    def test_free_pis_get_per_frame_nodes(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup(hold_pis=False)
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        d_node = model.node_of_net["d"]
        assert view.frame_map[0][d_node] != view.frame_map[1][d_node]

    def test_captured_flop_maps_to_previous_frame_d(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup()
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        element = next(e for e in model.state_elements if e.name == "ff1")
        frame1_q = view.frame_map[1][element.q_node]
        node = view.model.nodes[frame1_q]
        # The frame-1 copy of ff1's output is a buffer of the frame-0 D value.
        assert node.fanin == (view.frame_map[0][element.d_node],)

    def test_scan_enable_constraint_fixed(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup()
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        se_node = model.node_of_net["scan_en"]
        expanded = view.frame_map[0][se_node]
        assert view.fixed[expanded] is Logic.ZERO
        assert expanded not in view.controllable

    def test_scan_state_controllable(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup()
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        assert set(view.scan_state_node) == {"ff0", "ff1"}
        for node in view.scan_state_node.values():
            assert node in view.controllable

    def test_observation_points(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup(observe_pos=False)
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        assert sorted(view.observed_flops) == ["ff0", "ff1"]
        assert view.observation
        with_pos = build_timeframe_view(model, domain_map, setup.procedures[0],
                                        two_pulse_setup(observe_pos=True))
        assert len(with_pos.observation) > len(view.observation)


class TestTransitionRequirements:
    def test_launch_node_in_launch_frame(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup()
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        site = FaultSite(node=model.node_of_net["q0"])
        fault = TransitionFault(site=site, kind=TransitionKind.SLOW_TO_RISE)
        stuck, required = view.transition_requirements(fault)
        assert stuck.value == 0
        assert stuck.site.node == view.frame_map[1][site.node]
        (launch_node, value), = required
        assert launch_node == view.frame_map[0][site.node]
        assert value is Logic.ZERO

    def test_pattern_fields_split(self, simple_design):
        _, model, domain_map = simple_design
        setup = two_pulse_setup()
        view = build_timeframe_view(model, domain_map, setup.procedures[0], setup)
        ff0_node = view.scan_state_node["ff0"]
        d_node = view.frame_map[0][model.node_of_net["d"]]
        scan_load, frames = view.pattern_fields({ff0_node: Logic.ONE, d_node: Logic.ZERO})
        assert scan_load["ff0"] is Logic.ONE
        assert scan_load["ff1"] is Logic.X
        assert len(frames) == 2
        assert frames[0]["d"] is Logic.ZERO
        assert frames[1]["d"] is Logic.ZERO  # held


class TestDomainSelectiveCapture:
    def test_unpulsed_domain_aliases_previous_frame(self, scanned_two_domain):
        _, _, model, domain_map = scanned_two_domain
        procedure = NamedCaptureProcedure(
            name="only_a", pulses=(CapturePulse.of("a"), CapturePulse.of("a"))
        )
        setup = TestSetup(name="t", procedures=[procedure], observe_pos=False,
                          scan_enable_net="scan_en")
        view = build_timeframe_view(model, domain_map, procedure, setup)
        for element in model.state_elements:
            domain = domain_map.domain_of(element.name)
            frame0 = view.frame_map[0][element.q_node]
            frame1 = view.frame_map[1][element.q_node]
            if domain == "a":
                assert frame0 != frame1
            else:
                assert frame0 == frame1

    def test_three_pulse_procedure_has_three_frames(self, simple_design):
        _, model, domain_map = simple_design
        procedure = NamedCaptureProcedure(
            name="threep",
            pulses=tuple(CapturePulse.of("clk") for _ in range(3)),
        )
        setup = TestSetup(name="t", procedures=[procedure], scan_enable_net="scan_en")
        view = build_timeframe_view(model, domain_map, procedure, setup)
        assert view.num_frames == 3
        assert view.launch_frame == 1
        assert view.capture_frame == 2
