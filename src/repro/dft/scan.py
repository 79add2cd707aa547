"""Scan insertion: multiplexed-input scan cells and chain stitching.

The paper's device uses "multiplexed scan cells" stitched into 357 balanced
internal chains.  This module converts the scannable flip-flops of a netlist
into mux-D scan cells (an explicit 2:1 multiplexer in front of the D pin, so
the scan path is ordinary logic visible to ATPG and fault models — which is
exactly what makes "non-functional scan path" faults appear in coverage
reports), stitches them into balanced chains, and records the resulting scan
architecture.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.dft.chains import partition_into_chains
from repro.netlist.gates import GateType
from repro.netlist.netlist import Gate, Netlist
from repro.logic import Logic


@dataclass(frozen=True)
class ScanChain:
    """One scan chain.

    Attributes:
        name: Chain name.
        scan_in: Primary input net feeding the first cell.
        scan_out: Primary output net driven by the last cell.
        cells: Flip-flop instance names, scan-in side first.
    """

    name: str
    scan_in: str
    scan_out: str
    cells: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.cells)

    def load_sequence(self, scan_load: Mapping[str, Logic], fill: Logic = Logic.ZERO) -> list[Logic]:
        """Bit sequence to shift in (first bit first) to load the given values.

        The bit shifted in first travels furthest and ends in the *last* cell
        of the chain, so the sequence is the cell values in reverse order.
        """
        values = [scan_load.get(cell, Logic.X) for cell in self.cells]
        values = [v if v.is_known else fill for v in values]
        return list(reversed(values))

    def unload_values(self, shifted_out: Sequence[Logic]) -> dict[str, Logic]:
        """Map bits observed at scan-out (first observed first) back to cells.

        The first bit to appear at scan-out is the content of the *last* cell.
        """
        result: dict[str, Logic] = {}
        for offset, value in enumerate(shifted_out[: self.length]):
            cell = self.cells[self.length - 1 - offset]
            result[cell] = value
        return result


@dataclass
class ScanArchitecture:
    """The complete scan structure of a design after insertion."""

    scan_enable: str
    chains: list[ScanChain]
    test_mode: str | None = None

    @property
    def num_chains(self) -> int:
        return len(self.chains)

    @property
    def max_chain_length(self) -> int:
        return max((chain.length for chain in self.chains), default=0)

    @property
    def total_cells(self) -> int:
        return sum(chain.length for chain in self.chains)

    def load_sequences(
        self, scan_load: Mapping[str, Logic], fill: Logic = Logic.ZERO
    ) -> dict[str, list[Logic]]:
        """Per-chain shift-in sequences for one pattern."""
        return {chain.name: chain.load_sequence(scan_load, fill) for chain in self.chains}


def insert_scan(
    netlist: Netlist,
    num_chains: int = 4,
    scan_enable_net: str = "scan_en",
    chain_name_prefix: str = "chain",
    exclude: Iterable[str] = (),
    group_by_clock: bool = True,
    in_place: bool = True,
) -> tuple[Netlist, ScanArchitecture]:
    """Convert scannable flip-flops to scan cells and stitch balanced chains.

    Args:
        netlist: Design to modify.
        num_chains: Number of scan chains to build.
        scan_enable_net: Name of the (new) scan-enable primary input.
        chain_name_prefix: Prefix for chain names and scan-in/out port names.
        exclude: Flip-flop instance names to keep out of scan even if marked
            scannable.
        group_by_clock: Keep each chain within a single clock domain (chains
            never mix clocks — no lock-up latches are modelled).
        in_place: Modify the given netlist; when False a copy is returned.

    Returns:
        ``(netlist, architecture)``.
    """
    target = netlist if in_place else netlist.copy()
    excluded = set(exclude)

    candidates = [
        flop
        for flop in sorted(target.flops.values(), key=lambda f: f.name)
        if flop.scannable and flop.name not in excluded and not flop.is_scan
    ]
    if not candidates:
        return target, ScanArchitecture(scan_enable=scan_enable_net, chains=[])

    if scan_enable_net not in target.inputs:
        target.add_input(scan_enable_net)

    groups = partition_into_chains(
        candidates, num_chains, key=(lambda f: f.clock) if group_by_clock else None
    )

    chains: list[ScanChain] = []
    for chain_index, cells in enumerate(groups):
        if not cells:
            continue
        chain_name = f"{chain_name_prefix}{chain_index}"
        scan_in = f"{chain_name}_si"
        scan_out = f"{chain_name}_so"
        target.add_input(scan_in)
        previous_q = scan_in
        cell_names: list[str] = []
        for flop in cells:
            mux_out = f"{flop.name}_scan_d"
            target.add_gate(
                Gate(
                    name=f"{flop.name}_scan_mux",
                    gtype=GateType.MUX2,
                    inputs=(scan_enable_net, flop.d, previous_q),
                    output=mux_out,
                )
            )
            new_flop = replace(
                flop, d=mux_out, scan_in=previous_q, scan_enable=scan_enable_net
            )
            target.replace_flop(flop.name, new_flop)
            cell_names.append(flop.name)
            previous_q = flop.q
        target.add_gate(
            Gate(
                name=f"{chain_name}_so_buf",
                gtype=GateType.BUF,
                inputs=(previous_q,),
                output=scan_out,
            )
        )
        target.add_output(scan_out)
        chains.append(
            ScanChain(
                name=chain_name,
                scan_in=scan_in,
                scan_out=scan_out,
                cells=tuple(cell_names),
            )
        )
    return target, ScanArchitecture(scan_enable=scan_enable_net, chains=chains)
