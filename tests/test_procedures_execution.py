"""Integration tests: applying patterns to the netlist-level simulator.

These tests close the loop between the abstract ATPG view (time-frame
expanded model + named capture procedures) and the physical application of a
pattern (scan shifting, clock pulses per domain, unload): the good-machine
expectation computed by the transition fault simulator must match what the
cycle-accurate sequential simulator observes when the pattern is really
applied — including when the scan load is performed by honest bit-by-bit
shifting.
"""

import pytest

from repro.atpg import TestSetup
from repro.clocking import external_clock_procedures, simple_cpf_procedures
from repro.fault_sim import TransitionFaultSimulator
from repro.logic import Logic
from repro.patterns import TestPattern, elaborate_pattern, execute_pattern
from repro.clocking import OccController
from repro.simulation import SequentialSimulator


@pytest.fixture()
def executed_design(scanned_s27):
    netlist, scan, model, domain_map = scanned_s27
    setup = TestSetup(
        name="exec",
        procedures=external_clock_procedures(["clk"], max_pulses=2),
        observe_pos=True,
        scan_enable_net="scan_en",
    )
    return netlist, scan, model, domain_map, setup


def make_pattern(procedure, scan, value_pattern):
    cells = [cell for chain in scan.chains for cell in chain.cells]
    load = {cell: (Logic.ONE if i % 2 == value_pattern else Logic.ZERO)
            for i, cell in enumerate(cells)}
    pis = {f"G{i}": Logic.from_int((i + value_pattern) % 2) for i in range(4)}
    return TestPattern(procedure=procedure, scan_load=load,
                       pi_frames=[dict(pis), dict(pis)])


class TestExecutionAgainstGoodMachine:
    @pytest.mark.parametrize("value_pattern", [0, 1])
    def test_direct_load_matches_simulator_expectation(self, executed_design, value_pattern):
        netlist, scan, model, domain_map, setup = executed_design
        procedure = setup.procedures[0]
        pattern = make_pattern(procedure, scan, value_pattern)
        simulator = TransitionFaultSimulator(model, domain_map, setup)
        expected_unload, expected_outputs = simulator.good_capture(pattern)

        seq = SequentialSimulator(netlist)
        execution = execute_pattern(
            seq, pattern, scan,
            clock_nets_of_domains={"clk": "clk"},
            shift_clock_nets=["clk"],
            pin_constraints={"scan_en": Logic.ZERO},
        )
        for cell, value in expected_unload.items():
            if value.is_known:
                assert execution.captured_state[cell] is value, cell
        for net, value in expected_outputs.items():
            if value.is_known:
                assert execution.outputs[net] is value, net

    def test_full_shift_load_matches_direct_load(self, executed_design):
        netlist, scan, model, domain_map, setup = executed_design
        procedure = setup.procedures[0]
        pattern = make_pattern(procedure, scan, 0)

        direct = execute_pattern(
            SequentialSimulator(netlist), pattern, scan,
            clock_nets_of_domains={"clk": "clk"}, shift_clock_nets=["clk"],
            pin_constraints={"scan_en": Logic.ZERO},
        )
        shifted = execute_pattern(
            SequentialSimulator(netlist), pattern, scan,
            clock_nets_of_domains={"clk": "clk"}, shift_clock_nets=["clk"],
            pin_constraints={"scan_en": Logic.ZERO},
            full_shift=True,
        )
        assert direct.captured_state == shifted.captured_state
        assert shifted.unload_streams  # full shift also unloads


class TestElaboration:
    def test_elaborate_pattern_produces_protocol_and_shift_data(self, executed_design):
        netlist, scan, model, domain_map, setup = executed_design
        pattern = make_pattern(setup.procedures[0], scan, 0)
        application = elaborate_pattern(pattern, scan, OccController())
        assert set(application.load_sequences) == {c.name for c in scan.chains}
        for chain in scan.chains:
            assert len(application.load_sequences[chain.name]) == chain.length
        assert application.tester_cycles > scan.max_chain_length
        assert application.protocol


class TestDomainSelectiveExecution:
    def test_only_pulsed_domain_captures(self, scanned_two_domain):
        netlist, scan, model, domain_map = scanned_two_domain
        setup = TestSetup(
            name="cpf", procedures=simple_cpf_procedures(["a", "b"]),
            observe_pos=False, scan_enable_net="scan_en",
        )
        procedure = next(p for p in setup.procedures if p.name == "cpf_a_2pulse")
        cells = [cell for chain in scan.chains for cell in chain.cells]
        load = {cell: Logic.ZERO for cell in cells}
        pis = {f"da_{i}": Logic.ONE for i in range(4)} | {f"db_{i}": Logic.ONE for i in range(4)}
        pattern = TestPattern(procedure=procedure, scan_load=load,
                              pi_frames=[dict(pis), dict(pis)])
        seq = SequentialSimulator(netlist)
        execution = execute_pattern(
            seq, pattern, scan,
            clock_nets_of_domains={"a": "clk_a", "b": "clk_b"},
            shift_clock_nets=["clk_a", "clk_b"],
            pin_constraints={"scan_en": Logic.ZERO},
        )
        # Domain-b flip-flops were never clocked: they keep their loaded zeros.
        for name, value in execution.captured_state.items():
            if domain_map.domain_of(name) == "b":
                assert value is Logic.ZERO
        # At least one domain-a input register captured the held 1s.
        a_flops = [n for n in execution.captured_state if domain_map.domain_of(n) == "a"]
        assert any(execution.captured_state[n] is Logic.ONE for n in a_flops)
