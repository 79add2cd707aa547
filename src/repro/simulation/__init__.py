"""Circuit models and simulators."""

from repro.simulation.event_sim import EventSimulator, clock_stimulus
from repro.simulation.model import CircuitModel, Node, NodeKind, StateElement, build_model
from repro.simulation.parallel_sim import (
    PackedPatterns,
    pack_patterns,
    simulate_packed,
    unpack_value,
)
from repro.simulation.scalar_sim import simulate, simulate_by_net
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
    "pack_patterns",
    "simulate",
    "simulate_by_net",
    "simulate_packed",
    "unpack_value",
]
