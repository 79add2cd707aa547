"""Gate-level netlist representation, construction and I/O."""

from repro.netlist.builder import NetlistBuilder
from repro.netlist.gates import GateType, evaluate_gate
from repro.netlist.library import (
    DEFAULT_LIBRARY,
    AreaReport,
    CellInfo,
    area_report,
)
from repro.netlist.netlist import (
    FlipFlop,
    Gate,
    Latch,
    Netlist,
    NetlistError,
    NetlistStats,
    RamMacro,
)
from repro.netlist.verilog import read_verilog, round_trip, write_verilog

__all__ = [
    "AreaReport",
    "CellInfo",
    "DEFAULT_LIBRARY",
    "FlipFlop",
    "Gate",
    "GateType",
    "Latch",
    "Netlist",
    "NetlistBuilder",
    "NetlistError",
    "NetlistStats",
    "RamMacro",
    "area_report",
    "evaluate_gate",
    "read_verilog",
    "round_trip",
    "write_verilog",
]
