"""Test procedures: how a pattern is physically applied to the device.

This module turns abstract :class:`~repro.patterns.pattern.TestPattern`
objects into concrete application recipes against a scan architecture and an
OCC controller — the shift sequences per chain, the capture protocol steps,
and (for verification) a full execution on the cycle-accurate sequential
simulator including real shifting through the chains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.clocking.occ import AteStep, OccController
from repro.dft.scan import ScanArchitecture
from repro.patterns.pattern import TestPattern
from repro.logic import Logic
from repro.simulation.sequential import SequentialSimulator


@dataclass
class PatternApplication:
    """Fully elaborated application recipe for one pattern."""

    pattern: TestPattern
    load_sequences: dict[str, list[Logic]]
    protocol: list[AteStep]
    tester_cycles: int


def elaborate_pattern(
    pattern: TestPattern,
    scan: ScanArchitecture,
    occ: OccController,
) -> PatternApplication:
    """Compute per-chain shift data and the ATE protocol for one pattern."""
    load = scan.load_sequences(pattern.scan_load)
    protocol = occ.pattern_protocol(pattern.procedure, scan.max_chain_length)
    cycles = occ.tester_cycles(pattern.procedure, scan.max_chain_length)
    return PatternApplication(
        pattern=pattern,
        load_sequences=load,
        protocol=protocol,
        tester_cycles=cycles,
    )


@dataclass
class PatternExecution:
    """Result of executing one pattern on the sequential simulator."""

    captured_state: dict[str, Logic]
    outputs: dict[str, Logic]
    unload_streams: dict[str, list[Logic]]


def execute_pattern(
    simulator: SequentialSimulator,
    pattern: TestPattern,
    scan: ScanArchitecture,
    clock_nets_of_domains: Mapping[str, str],
    shift_clock_nets: Sequence[str],
    pin_constraints: Mapping[str, Logic] | None = None,
    full_shift: bool = False,
) -> PatternExecution:
    """Apply one pattern to a netlist-level simulator, honest shift included.

    Args:
        simulator: A sequential simulator over the scan-inserted netlist.
        pattern: The pattern to apply.
        scan: The scan architecture (chains, scan-enable).
        clock_nets_of_domains: Domain name -> clock net to pulse during capture.
        shift_clock_nets: Clock nets pulsed during shifting (usually every
            domain clock, all fed by the slow scan clock while scan_en is 1).
        pin_constraints: Values held on constrained pins during capture.
        full_shift: When True the scan load is applied by really shifting bit
            by bit through the chains (slow but faithful); when False the
            state is loaded directly (fast path used by most tests).

    Returns:
        The captured state, output values and (when ``full_shift``) the
        unloaded bit streams per chain.
    """
    constraints = dict(pin_constraints or {})
    simulator.reset_state()

    if full_shift and scan.chains:
        sequences = scan.load_sequences(pattern.scan_load)
        chains = [list(chain.cells) for chain in scan.chains]
        bits = [sequences[chain.name] for chain in scan.chains]
        simulator.set_inputs(constraints)
        simulator.scan_shift(chains, bits, scan.scan_enable, shift_clock_nets)
    else:
        load = {
            cell: value if value.is_known else Logic.ZERO
            for cell, value in pattern.scan_load.items()
        }
        simulator.load_state(load)

    simulator.set_inputs({scan.scan_enable: Logic.ZERO})
    simulator.set_inputs(constraints)

    for frame_index, pulse in enumerate(pattern.procedure.pulses):
        frame_inputs = pattern.pi_frames[min(frame_index, len(pattern.pi_frames) - 1)]
        known_inputs = {net: v for net, v in frame_inputs.items() if v.is_known}
        simulator.set_inputs(known_inputs)
        clock_nets = {
            clock_nets_of_domains[domain]
            for domain in pulse.domains
            if domain in clock_nets_of_domains
        }
        simulator.pulse(clock_nets)

    outputs = simulator.outputs()
    captured = {
        name: value
        for name, value in simulator.read_state().items()
        if name in {cell for chain in scan.chains for cell in chain.cells}
    }

    unload_streams: dict[str, list[Logic]] = {}
    if full_shift and scan.chains:
        chains = [list(chain.cells) for chain in scan.chains]
        zero_bits = [[Logic.ZERO] * len(chain.cells) for chain in scan.chains]
        shifted = simulator.scan_shift(chains, zero_bits, scan.scan_enable, shift_clock_nets)
        unload_streams = {
            chain.name: shifted[index] for index, chain in enumerate(scan.chains)
        }
    return PatternExecution(
        captured_state=captured,
        outputs=outputs,
        unload_streams=unload_streams,
    )
