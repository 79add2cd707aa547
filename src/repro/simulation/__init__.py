"""Circuit models and simulators."""

from repro.simulation.event_sim import EventSimulator, clock_stimulus, step_stimulus
from repro.simulation.model import CircuitModel, Node, NodeKind, StateElement, build_model
from repro.simulation.parallel_sim import (
    PackedPatterns,
    pack_patterns,
    simulate_packed,
    unpack_node,
    unpack_value,
)
from repro.simulation.scalar_sim import (
    next_state_values,
    output_values,
    simulate,
    simulate_by_net,
)
from repro.simulation.sequential import RamState, SequentialSimulator
from repro.simulation.waveform import Edge, Pulse, SignalTrace, Waveform

__all__ = [
    "CircuitModel",
    "Edge",
    "EventSimulator",
    "Node",
    "NodeKind",
    "PackedPatterns",
    "Pulse",
    "RamState",
    "SequentialSimulator",
    "SignalTrace",
    "StateElement",
    "Waveform",
    "build_model",
    "clock_stimulus",
    "next_state_values",
    "output_values",
    "pack_patterns",
    "simulate",
    "simulate_by_net",
    "simulate_packed",
    "step_stimulus",
    "unpack_node",
    "unpack_value",
]
