"""Unit tests for the broadside transition-fault simulator."""

import pytest

from repro.atpg import TestSetup
from repro.clocking import (
    CapturePulse,
    ClockDomain,
    ClockDomainMap,
    NamedCaptureProcedure,
    external_clock_procedures,
    simple_cpf_procedures,
)
from repro.dft import insert_scan
from repro.fault_sim import TransitionFaultSimulator
from repro.faults import FaultSite, TransitionFault, TransitionKind
from repro.logic import Logic
from repro.netlist import NetlistBuilder
from repro.patterns import TestPattern
from repro.simulation import build_model


@pytest.fixture()
def shift_register_design():
    """Two scan flip-flops in series with a buffer between them."""
    builder = NetlistBuilder("sr2")
    clk = builder.clock("clk")
    d = builder.input("d")
    q0 = builder.flop(d, clk, q="q0", name="ff0")
    mid = builder.buf(q0, output="mid")
    builder.flop(mid, clk, q="q1", name="ff1")
    builder.output_from("q1", "out")
    netlist, scan = insert_scan(builder.build(), num_chains=1)
    model = build_model(netlist)
    domain_map = ClockDomainMap.from_netlist(netlist, [ClockDomain("clk", "clk", 100.0)])
    setup = TestSetup(
        name="t",
        procedures=external_clock_procedures(["clk"], max_pulses=2),
        observe_pos=True,
        scan_enable_net="scan_en",
    )
    return netlist, scan, model, domain_map, setup


def make_pattern(procedure, scan_load, pis):
    return TestPattern(
        procedure=procedure,
        scan_load=scan_load,
        pi_frames=[dict(pis) for _ in range(procedure.num_frames)],
    )


class TestLaunchCaptureSemantics:
    def test_rising_transition_detected(self, shift_register_design):
        netlist, scan, model, domain_map, setup = shift_register_design
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        procedure = setup.procedures[0]
        # Load ff0=0; D input d=1 held -> launch 0->1 at q0, captured by ff1.
        pattern = make_pattern(procedure, {"ff0": Logic.ZERO, "ff1": Logic.ZERO},
                               {"d": Logic.ONE, "scan_en": Logic.ZERO})
        site = FaultSite(node=model.node_of_net["q0"])
        str_fault = TransitionFault(site=site, kind=TransitionKind.SLOW_TO_RISE)
        stf_fault = TransitionFault(site=site, kind=TransitionKind.SLOW_TO_FALL)
        assert simulator.detects(pattern, str_fault)
        assert not simulator.detects(pattern, stf_fault)

    def test_falling_transition_detected(self, shift_register_design):
        netlist, scan, model, domain_map, setup = shift_register_design
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        procedure = setup.procedures[0]
        pattern = make_pattern(procedure, {"ff0": Logic.ONE, "ff1": Logic.ZERO},
                               {"d": Logic.ZERO, "scan_en": Logic.ZERO})
        site = FaultSite(node=model.node_of_net["q0"])
        stf_fault = TransitionFault(site=site, kind=TransitionKind.SLOW_TO_FALL)
        assert simulator.detects(pattern, stf_fault)

    def test_no_launch_no_detection(self, shift_register_design):
        netlist, scan, model, domain_map, setup = shift_register_design
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        procedure = setup.procedures[0]
        # ff0 loaded 1 and d=1: no transition at q0 -> nothing to detect.
        pattern = make_pattern(procedure, {"ff0": Logic.ONE, "ff1": Logic.ZERO},
                               {"d": Logic.ONE, "scan_en": Logic.ZERO})
        site = FaultSite(node=model.node_of_net["q0"])
        fault = TransitionFault(site=site, kind=TransitionKind.SLOW_TO_RISE)
        assert not simulator.detects(pattern, fault)

    def test_good_capture_matches_expectation(self, shift_register_design):
        netlist, scan, model, domain_map, setup = shift_register_design
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        procedure = setup.procedures[0]
        pattern = make_pattern(procedure, {"ff0": Logic.ZERO, "ff1": Logic.ZERO},
                               {"d": Logic.ONE, "scan_en": Logic.ZERO})
        unload, outputs = simulator.good_capture(pattern)
        # After two pulses: ff0 captured d=1 twice; ff1 captured q0 after launch = 1.
        assert unload["ff0"] is Logic.ONE
        assert unload["ff1"] is Logic.ONE


class TestDomainAwareness:
    @pytest.fixture()
    def two_domain(self, scanned_two_domain):
        netlist, scan, model, domain_map = scanned_two_domain
        return netlist, scan, model, domain_map

    def test_unpulsed_domain_cannot_capture(self, two_domain):
        netlist, scan, model, domain_map = two_domain
        setup = TestSetup(
            name="cpf",
            procedures=simple_cpf_procedures(["a", "b"]),
            observe_pos=False,
            scan_enable_net="scan_en",
        )
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        proc_a = next(p for p in setup.procedures if p.name == "cpf_a_2pulse")
        obs_a = simulator.observation_nodes(proc_a)
        # Observation points of the domain-a procedure are D inputs of a-domain
        # scan cells only.
        for element in model.state_elements:
            if element.d_node in obs_a:
                assert domain_map.domain_of(element.name) == "a"

    def test_inter_domain_procedure_observes_capture_domain(self, two_domain):
        netlist, scan, model, domain_map = two_domain
        inter = NamedCaptureProcedure(
            name="a_to_b",
            pulses=(CapturePulse.of("a"), CapturePulse.of("b")),
        )
        setup = TestSetup(name="x", procedures=[inter], observe_pos=False,
                          scan_enable_net="scan_en")
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        observed = set(simulator.observed_scan_flops(inter))
        assert observed
        for name in observed:
            assert domain_map.domain_of(name) == "b"
