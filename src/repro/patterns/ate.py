"""ATE pattern export and tester vector-memory accounting.

Patterns are written in a compact STIL-flavoured text format: a signal
declaration header, one ``Procedures`` block per named capture procedure
(carrying the OCC protocol that reproduces its internal pulses from scan_en /
scan_clk), and one ``Pattern`` block per test with per-chain load/unload
strings.  The accounting model estimates the tester vector memory the set
occupies — the quantity the paper says forces the "more extensive use of an
on-chip [compression] technique" once transition pattern counts grow.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.clocking.named_capture import CapturePulse, NamedCaptureProcedure
from repro.clocking.occ import AteAction, OccController
from repro.dft.scan import ScanArchitecture
from repro.patterns.pattern import PatternSet, TestPattern
from repro.logic import Logic


def _bits(values: Iterable[Logic]) -> str:
    return "".join(str(v) if v.is_known else "X" for v in values)


@dataclass
class VectorMemoryReport:
    """Tester memory consumption estimate for one pattern set."""

    num_patterns: int
    chain_length: int
    scan_channels: int
    tester_cycles: int
    stimulus_bits: int
    response_bits: int

    @property
    def total_bits(self) -> int:
        return self.stimulus_bits + self.response_bits

    @property
    def total_megabits(self) -> float:
        return self.total_bits / 1e6

    def fits_in(self, memory_megabits: float) -> bool:
        return self.total_megabits <= memory_megabits


def vector_memory_report(
    patterns: PatternSet | Sequence[TestPattern],
    scan: ScanArchitecture,
    occ: OccController,
    external_channels: int | None = None,
) -> VectorMemoryReport:
    """Estimate the ATE vector memory a pattern set occupies.

    Args:
        patterns: The pattern set.
        scan: Scan architecture (chain count/length).
        occ: OCC controller (capture protocol overhead).
        external_channels: Number of tester scan channels; defaults to the
            number of chains (no compression).  With EDT the channel count is
            much smaller and the report shrinks accordingly.
    """
    items = list(patterns)
    channels = external_channels if external_channels is not None else scan.num_chains
    chain_length = scan.max_chain_length
    cycles = 0
    for pattern in items:
        cycles += occ.tester_cycles(pattern.procedure, chain_length)
    stimulus = cycles * channels
    response = cycles * channels
    return VectorMemoryReport(
        num_patterns=len(items),
        chain_length=chain_length,
        scan_channels=channels,
        tester_cycles=cycles,
        stimulus_bits=stimulus,
        response_bits=response,
    )


def export_stil(
    patterns: PatternSet | Sequence[TestPattern],
    scan: ScanArchitecture,
    occ: OccController,
    design_name: str = "dut",
) -> str:
    """Serialize a pattern set to the STIL-flavoured text format."""
    items = list(patterns)
    lines: list[str] = []
    lines.append(f'STIL 1.0; // written by repro.patterns.ate for "{design_name}"')
    lines.append("Signals {")
    for chain in scan.chains:
        lines.append(f"  {chain.scan_in} In; {chain.scan_out} Out;")
    lines.append(f"  {occ.scan_clk} In; {occ.scan_en} In; {occ.test_mode} In;")
    lines.append("}")

    procedures = {}
    for pattern in items:
        procedures.setdefault(pattern.procedure.name, pattern.procedure)
    lines.append("Procedures {")
    for name, procedure in sorted(procedures.items()):
        lines.append(f"  {name} {{ // {procedure.describe()}")
        for step in occ.capture_protocol(procedure):
            if step.action is AteAction.SET_SIGNAL:
                lines.append(f"    Force {step.signal} {step.value}; // {step.comment}")
            elif step.action is AteAction.PULSE_SCAN_CLK:
                lines.append(f"    Pulse {step.signal}; // {step.comment}")
            elif step.action is AteAction.WAIT_PLL_CYCLES:
                lines.append(f"    Wait {step.count}; // {step.comment}")
            elif step.action is AteAction.STROBE_OUTPUTS:
                lines.append(f"    Measure; // {step.comment}")
        lines.append("  }")
    lines.append("}")

    lines.append("PatternBurst all_patterns {")
    for index, pattern in enumerate(items):
        lines.append(f"  Pattern p{index} {{")
        lines.append(f"    Call load_unload {{")
        for chain in scan.chains:
            load = _bits(chain.load_sequence(pattern.scan_load, fill=Logic.ZERO))
            unload = _bits(
                pattern.expected_unload.get(cell, Logic.X) for cell in reversed(chain.cells)
            )
            lines.append(f"      {chain.scan_in}={load}; {chain.scan_out}={unload};")
        lines.append("    }")
        pi_values = pattern.pi_frames[0] if pattern.pi_frames else {}
        forces = " ".join(
            f"{net}={value}" for net, value in sorted(pi_values.items()) if value.is_known
        )
        if forces:
            lines.append(f"    Force {{ {forces} }}")
        lines.append(f"    Call {pattern.procedure.name};")
        if pattern.observe_pos and pattern.expected_outputs:
            measures = " ".join(
                f"{net}={value}"
                for net, value in sorted(pattern.expected_outputs.items())
                if value.is_known
            )
            if measures:
                lines.append(f"    Measure {{ {measures} }}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_stil_pattern_count(text: str) -> int:
    """Count the patterns in an exported STIL text (round-trip sanity check)."""
    return sum(1 for line in text.splitlines() if line.strip().startswith("Pattern p"))


# --------------------------------------------------------------------------
# Parsing (the inverse of export_stil)
# --------------------------------------------------------------------------
_PROC_HEADER_RE = re.compile(r"^(?P<name>\S+) \{ // (?P<describe>.+)$")
_PULSE_RE = re.compile(r"P\d+\[(?P<domains>[^ \]]+) @(?P<speed>speed|slow)\]")
_CHAIN_LINE_RE = re.compile(
    r"^(?P<scan_in>\S+)=(?P<load>[01X]*); (?P<scan_out>\S+)=(?P<unload>[01X]*);$"
)
_ASSIGN_RE = re.compile(r"(?P<net>\S+)=(?P<value>[01X])")


def _logic_of(char: str) -> Logic:
    if char == "0":
        return Logic.ZERO
    if char == "1":
        return Logic.ONE
    return Logic.X


def _procedure_from_describe(text: str) -> NamedCaptureProcedure:
    """Rebuild a capture procedure from its ``describe()`` line.

    ``describe()`` (the comment ``export_stil`` writes next to every
    procedure header) is a complete serialization of the behavioral clock
    model: name, pulse order, per-pulse domain sets and at-speed flags.
    """
    name, sep, rest = text.partition(": ")
    if not sep:
        raise ValueError(f"malformed procedure comment {text!r}")
    pulses = tuple(
        CapturePulse(
            domains=frozenset(match["domains"].split("+")),
            at_speed=match["speed"] == "speed",
        )
        for match in _PULSE_RE.finditer(rest)
    )
    if not pulses:
        raise ValueError(f"procedure comment {text!r} describes no pulses")
    return NamedCaptureProcedure(name=name.strip(), pulses=pulses)


def parse_pattern_text(
    text: str,
    scan: ScanArchitecture,
    procedures: Sequence[NamedCaptureProcedure] = (),
) -> PatternSet:
    """Parse an exported STIL-flavoured text back into a :class:`PatternSet`.

    The inverse of :func:`export_stil`: re-exporting the parsed set with the
    same scan architecture and OCC controller reproduces the input byte for
    byte.  Capture procedures are reconstructed from the ``describe()``
    comments in the ``Procedures`` block; pass ``procedures`` to reuse
    existing objects (matched by name) instead.

    Lossy corners (by construction of the text format): ``target_faults``
    and ``cube_scan_load`` are not serialized, primary-input values are
    replicated across capture frames (the hold-PIs discipline every
    exported on-chip-clocked pattern obeys), and a pattern exported with
    masked outputs parses back with ``observe_pos=True`` and no expected
    outputs — which re-exports identically.
    """
    chain_of_scan_in = {chain.scan_in: chain for chain in scan.chains}
    known_procedures: dict[str, NamedCaptureProcedure] = {
        procedure.name: procedure for procedure in procedures
    }
    parsed_procedures: dict[str, NamedCaptureProcedure] = {}

    patterns: list[TestPattern] = []
    section = None  # None | "procedures" | "burst"
    current: dict | None = None

    def commit(record: dict) -> None:
        name = record["procedure"]
        procedure = known_procedures.get(name) or parsed_procedures.get(name)
        if procedure is None:
            raise ValueError(f"pattern references undeclared procedure {name!r}")
        patterns.append(
            TestPattern(
                procedure=procedure,
                scan_load=record["scan_load"],
                pi_frames=[dict(record["forces"]) for _ in range(procedure.num_frames)],
                observe_pos=True,
                expected_unload=record["expected_unload"],
                expected_outputs=record["expected_outputs"],
            )
        )

    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("Procedures {"):
            section = "procedures"
            continue
        if line.startswith("PatternBurst "):
            section = "burst"
            continue
        if section == "procedures":
            match = _PROC_HEADER_RE.match(line)
            if match:
                procedure = _procedure_from_describe(match["describe"])
                parsed_procedures[procedure.name] = procedure
            continue
        if section != "burst":
            continue
        if line.startswith("Pattern p"):
            current = {
                "procedure": None,
                "scan_load": {},
                "expected_unload": {},
                "forces": {},
                "expected_outputs": {},
            }
            continue
        if current is None:
            continue
        match = _CHAIN_LINE_RE.match(line)
        if match:
            chain = chain_of_scan_in.get(match["scan_in"])
            if chain is None:
                raise ValueError(
                    f"scan-in pin {match['scan_in']!r} is not in the given scan "
                    f"architecture — pattern text and design do not match"
                )
            load, unload = match["load"], match["unload"]
            if len(load) != chain.length or len(unload) != chain.length:
                raise ValueError(
                    f"chain {chain.name!r} expects {chain.length} bits, got "
                    f"load={len(load)} unload={len(unload)}"
                )
            # The first bit shifted in ends up in the last cell (and the
            # first bit shifted out came from it): both strings are the cell
            # values in reverse chain order.
            for offset, cell in enumerate(reversed(chain.cells)):
                value = _logic_of(load[offset])
                if value.is_known:
                    current["scan_load"][cell] = value
                expected = _logic_of(unload[offset])
                if expected.is_known:
                    current["expected_unload"][cell] = expected
            continue
        if line.startswith("Force { ") and line.endswith(" }"):
            for match in _ASSIGN_RE.finditer(line[len("Force { "):-2]):
                current["forces"][match["net"]] = _logic_of(match["value"])
            continue
        if line.startswith("Measure { ") and line.endswith(" }"):
            for match in _ASSIGN_RE.finditer(line[len("Measure { "):-2]):
                current["expected_outputs"][match["net"]] = _logic_of(match["value"])
            continue
        if line.startswith("Call ") and line.endswith(";"):
            current["procedure"] = line[len("Call "):-1].strip()
            continue
        if line == "}" and current is not None and current["procedure"] is not None:
            commit(current)
            current = None
    return PatternSet(patterns)
