"""Standard-cell library metadata: per-cell delay and area numbers.

The event-driven timing simulator and the area reports (Figure 3 of the paper
quotes "ten standard digital logic gates per clock domain" for the CPF) need
nominal per-cell properties.  The numbers below are representative of a 130nm
standard-cell library — the same technology node as the paper's device — in
arbitrary-but-consistent units (delay in picoseconds, area in NAND2
equivalents).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class CellInfo:
    """Nominal properties of a primitive cell."""

    delay_ps: float
    area_nand2: float


DEFAULT_LIBRARY: Mapping[GateType, CellInfo] = {
    GateType.NOT: CellInfo(delay_ps=20.0, area_nand2=0.7),
    GateType.BUF: CellInfo(delay_ps=25.0, area_nand2=0.9),
    GateType.NAND: CellInfo(delay_ps=30.0, area_nand2=1.0),
    GateType.NOR: CellInfo(delay_ps=35.0, area_nand2=1.1),
    GateType.AND: CellInfo(delay_ps=45.0, area_nand2=1.3),
    GateType.OR: CellInfo(delay_ps=50.0, area_nand2=1.4),
    GateType.XOR: CellInfo(delay_ps=70.0, area_nand2=2.2),
    GateType.XNOR: CellInfo(delay_ps=70.0, area_nand2=2.2),
    GateType.MUX2: CellInfo(delay_ps=60.0, area_nand2=2.0),
    GateType.TIE0: CellInfo(delay_ps=0.0, area_nand2=0.3),
    GateType.TIE1: CellInfo(delay_ps=0.0, area_nand2=0.3),
}

# Sequential / macro cells are not GateTypes; keep their metadata separately.
FLOP_INFO = CellInfo(delay_ps=120.0, area_nand2=5.5)
SCAN_FLOP_INFO = CellInfo(delay_ps=130.0, area_nand2=6.5)
LATCH_INFO = CellInfo(delay_ps=80.0, area_nand2=3.5)
RAM_BIT_INFO = CellInfo(delay_ps=450.0, area_nand2=0.6)


@dataclass(frozen=True)
class AreaReport:
    """Area accounting of a netlist in NAND2-equivalent units."""

    combinational: float
    sequential: float
    memory: float

    @property
    def total(self) -> float:
        return self.combinational + self.sequential + self.memory


def area_report(netlist: Netlist, library: Mapping[GateType, CellInfo] | None = None) -> AreaReport:
    """Compute the NAND2-equivalent area of a netlist.

    Used by the Figure 3 benchmark to substantiate the paper's claim that the
    CPF area overhead is negligible (about ten gates per clock domain).
    """
    lib = library or DEFAULT_LIBRARY
    comb = sum(lib[g.gtype].area_nand2 for g in netlist.gates.values())
    seq = 0.0
    for flop in netlist.flops.values():
        seq += (SCAN_FLOP_INFO if flop.is_scan else FLOP_INFO).area_nand2
    seq += LATCH_INFO.area_nand2 * len(netlist.latches)
    mem = sum(RAM_BIT_INFO.area_nand2 * ram.num_words * ram.width for ram in netlist.rams.values())
    return AreaReport(combinational=comb, sequential=seq, memory=mem)

