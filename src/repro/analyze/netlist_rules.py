"""Netlist-structure rules: the netlist design-rule checks, with SCC-based
loop enumeration.

``combinational-loop`` reports one finding *per loop* (Tarjan SCC) rather
than one blanket finding per netlist.
"""

from __future__ import annotations

from typing import Iterable

from repro.analyze.report import Finding, Severity
from repro.analyze.rules import AnalysisContext, rule
from repro.analyze.structural import combinational_sccs


@rule(
    "undriven-net",
    severity=Severity.ERROR,
    category="netlist",
    description="A net is consumed (gate/flop/latch/RAM input or PO) but has no driver",
)
def check_undriven_nets(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    severity = (
        Severity.WARNING if context.allow_floating_inputs else Severity.ERROR
    )
    sinks: set[str] = set()
    for gate in netlist.gates.values():
        sinks.update(gate.inputs)
    for flop in netlist.flops.values():
        sinks.add(flop.d)
        if flop.scan_in:
            sinks.add(flop.scan_in)
        if flop.scan_enable:
            sinks.add(flop.scan_enable)
    for latch in netlist.latches.values():
        sinks.add(latch.d)
        sinks.add(latch.enable)
    for ram in netlist.rams.values():
        sinks.update(ram.address)
        sinks.update(ram.data_in)
        sinks.add(ram.write_enable)
    sinks.update(netlist.outputs)
    for net in sorted(sinks):
        if netlist.driver_of(net) is None and net not in netlist.clock_nets:
            yield Finding(
                rule="undriven-net",
                severity=severity,
                message="net is used as an input but has no driver",
                subject=net,
            )


@rule(
    "dangling-output",
    severity=Severity.WARNING,
    category="netlist",
    description="A gate output drives no gate, sequential element, RAM or PO",
)
def check_dangling_outputs(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    loads: set[str] = set(netlist.outputs)
    for gate in netlist.gates.values():
        loads.update(gate.inputs)
    for flop in netlist.flops.values():
        loads.add(flop.d)
        loads.add(flop.clock)
        if flop.reset:
            loads.add(flop.reset)
        if flop.scan_in:
            loads.add(flop.scan_in)
        if flop.scan_enable:
            loads.add(flop.scan_enable)
    for latch in netlist.latches.values():
        loads.add(latch.d)
        loads.add(latch.enable)
    for ram in netlist.rams.values():
        loads.update(ram.address)
        loads.update(ram.data_in)
        loads.add(ram.write_enable)
        loads.add(ram.clock)
    for gate in netlist.gates.values():
        if gate.output not in loads:
            yield Finding(
                rule="dangling-output",
                severity=Severity.WARNING,
                message="gate output drives nothing",
                subject=gate.name,
            )


@rule(
    "combinational-loop",
    severity=Severity.ERROR,
    category="netlist",
    description="Gates form a combinational cycle (one finding per SCC)",
)
def check_combinational_loops(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    for component in combinational_sccs(netlist):
        shown = ", ".join(component[:8])
        suffix = ", ..." if len(component) > 8 else ""
        yield Finding(
            rule="combinational-loop",
            severity=Severity.ERROR,
            message=(
                f"combinational cycle through {len(component)} gate(s): "
                f"{shown}{suffix}"
            ),
            subject=netlist.name,
            data={"gates": component},
        )


@rule(
    "missing-clock",
    severity=Severity.ERROR,
    category="netlist",
    description="A flip-flop has no clock net",
)
def check_missing_clocks(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    for flop in netlist.flops.values():
        if not flop.clock:
            yield Finding(
                rule="missing-clock",
                severity=Severity.ERROR,
                message="flip-flop has no clock net",
                subject=flop.name,
            )


@rule(
    "clock-as-data",
    severity=Severity.WARNING,
    category="netlist",
    description="A declared clock net feeds a combinational gate input",
)
def check_clock_as_data(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    clock_nets = netlist.clock_nets
    for gate in netlist.gates.values():
        for net in gate.inputs:
            if net in clock_nets:
                yield Finding(
                    rule="clock-as-data",
                    severity=Severity.WARNING,
                    message=f"clock net {net!r} feeds a combinational gate",
                    subject=gate.name,
                )
                break


@rule(
    "partial-scan-cell",
    severity=Severity.ERROR,
    category="netlist",
    description="A flop has scan_in or scan_enable but not both",
)
def check_partial_scan_cells(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    for flop in netlist.flops.values():
        if (flop.scan_in is not None) != (flop.scan_enable is not None):
            yield Finding(
                rule="partial-scan-cell",
                severity=Severity.ERROR,
                message="scan cell must have both scan_in and scan_enable",
                subject=flop.name,
            )


@rule(
    "nonscan-stitched",
    severity=Severity.ERROR,
    category="netlist",
    description="A flop marked non-scannable is stitched into a chain",
)
def check_nonscan_stitched(context: AnalysisContext) -> Iterable[Finding]:
    netlist = context.netlist
    assert netlist is not None
    for flop in netlist.flops.values():
        if flop.is_scan and not flop.scannable:
            yield Finding(
                rule="nonscan-stitched",
                severity=Severity.ERROR,
                message="flip-flop marked non-scannable but stitched into a chain",
                subject=flop.name,
            )
