"""Embedded deterministic test (EDT) style compression.

The paper's device feeds its 357 internal chains from only 36 external
channels through an EDT architecture (reference [15]); compression is what
lets the inflated transition pattern counts still fit the tester's vector
memory.  This module implements the textbook structure:

* a ring-generator/LFSR **decompressor** with per-cycle channel injection and
  a phase shifter feeding the internal chain inputs.  Because the structure is
  linear over GF(2), the care bits of a test cube translate into a linear
  system over the injected channel bits; :meth:`EdtDecompressor.solve`
  performs the Gaussian elimination that the EDT controller's solver would;
* an XOR space **compactor** from internal chain outputs to output channels
  with optional per-chain X-masking;
* an :class:`EdtArchitecture` wrapper that reports compression ratio and
  tester vector-memory usage for a pattern set — the numbers behind the
  paper's remark that "only using this technique [can] the observed pattern
  count be loaded into the ATE vector memory without truncation".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.dft.scan import ScanArchitecture
from repro.patterns.pattern import PatternSet, TestPattern
from repro.logic import Logic
from repro.records import JsonRecord


@dataclass
class EdtSolution:
    """Solved channel injection bits for one test cube."""

    channel_bits: list[list[int]]  # [cycle][channel]
    free_variables: int

    @property
    def num_cycles(self) -> int:
        return len(self.channel_bits)


class EdtDecompressor:
    """Linear (ring-generator + phase-shifter) test stimulus decompressor."""

    def __init__(
        self,
        num_channels: int,
        num_chains: int,
        lfsr_length: int = 32,
        seed: int = 2005,
    ) -> None:
        if num_channels < 1 or num_chains < 1:
            raise ValueError("channel and chain counts must be positive")
        self.num_channels = num_channels
        self.num_chains = num_chains
        self.lfsr_length = max(lfsr_length, num_channels, 8)
        rng = random.Random(seed)
        # Feedback taps of the ring generator (always includes the last bit).
        self.feedback_taps = sorted(
            {self.lfsr_length - 1}
            | {rng.randrange(self.lfsr_length) for _ in range(3)}
        )
        # Injection position of every external channel.
        self.injection_positions = [
            (i * self.lfsr_length) // num_channels for i in range(num_channels)
        ]
        # Phase shifter: each chain input is the XOR of three LFSR bits.
        self.phase_taps: list[tuple[int, ...]] = []
        for chain in range(num_chains):
            taps = {
                (chain * 7 + k * 13 + 1) % self.lfsr_length for k in range(3)
            }
            self.phase_taps.append(tuple(sorted(taps)))

    # --------------------------------------------------------------- forward
    def expand(self, channel_bits: Sequence[Sequence[int]]) -> list[list[int]]:
        """Expand per-cycle channel bits into per-cycle chain input bits.

        Args:
            channel_bits: ``channel_bits[cycle][channel]`` injection values.

        Returns:
            ``chain_bits[cycle][chain]`` values shifted into each chain head.
        """
        state = [0] * self.lfsr_length
        result: list[list[int]] = []
        for cycle_bits in channel_bits:
            state = self._step(state, cycle_bits)
            result.append([self._phase_output(state, chain) for chain in range(self.num_chains)])
        return result

    def _step(self, state: list[int], injections: Sequence[int]) -> list[int]:
        feedback = 0
        for tap in self.feedback_taps:
            feedback ^= state[tap]
        new_state = [feedback] + state[:-1]
        for channel, bit in enumerate(injections):
            if channel >= self.num_channels:
                break
            new_state[self.injection_positions[channel]] ^= bit & 1
        return new_state

    def _phase_output(self, state: Sequence[int], chain: int) -> int:
        value = 0
        for tap in self.phase_taps[chain]:
            value ^= state[tap]
        return value

    # -------------------------------------------------------------- symbolic
    def _symbolic_chain_bits(self, num_cycles: int) -> list[list[int]]:
        """Chain-input expressions as variable bitmasks.

        Variable ``cycle * num_channels + channel`` is the bit injected on
        ``channel`` during ``cycle``.  The returned
        ``expr[cycle][chain]`` is an integer bitmask of the variables whose
        XOR forms that chain bit (the LFSR starts from the all-zero state, so
        there is no constant term).
        """
        state = [0] * self.lfsr_length  # bitmasks
        expressions: list[list[int]] = []
        for cycle in range(num_cycles):
            feedback = 0
            for tap in self.feedback_taps:
                feedback ^= state[tap]
            state = [feedback] + state[:-1]
            for channel in range(self.num_channels):
                variable = 1 << (cycle * self.num_channels + channel)
                state[self.injection_positions[channel]] ^= variable
            expressions.append(
                [self._phase_expression(state, chain) for chain in range(self.num_chains)]
            )
        return expressions

    def _phase_expression(self, state: Sequence[int], chain: int) -> int:
        value = 0
        for tap in self.phase_taps[chain]:
            value ^= state[tap]
        return value

    def solve(
        self,
        care_bits: Mapping[tuple[int, int], int],
        chain_length: int,
        rng: random.Random | None = None,
    ) -> EdtSolution | None:
        """Solve for channel bits reproducing a test cube's care bits.

        Args:
            care_bits: ``{(chain_index, cell_position): value}`` where
                ``cell_position`` 0 is the cell nearest the chain's scan input.
            chain_length: Shift length (cycles) of the longest chain.
            rng: Source for the free variables (defaults to zeros).

        Returns:
            An :class:`EdtSolution`, or ``None`` if the care bits exceed the
            decompressor's encoding capacity (linearly dependent conflict).
        """
        num_cycles = chain_length
        expressions = self._symbolic_chain_bits(num_cycles)
        rows: list[int] = []
        rhs: list[int] = []
        for (chain, position), value in sorted(care_bits.items()):
            if chain >= self.num_chains or position >= chain_length:
                raise ValueError(f"care bit {(chain, position)} outside the scan structure")
            cycle = chain_length - 1 - position
            rows.append(expressions[cycle][chain])
            rhs.append(value & 1)
        solution_bits = _solve_gf2(rows, rhs, num_cycles * self.num_channels, rng)
        if solution_bits is None:
            return None
        channel_bits = [
            [
                (solution_bits >> (cycle * self.num_channels + channel)) & 1
                for channel in range(self.num_channels)
            ]
            for cycle in range(num_cycles)
        ]
        free = num_cycles * self.num_channels - len(rows)
        return EdtSolution(channel_bits=channel_bits, free_variables=max(0, free))


def _solve_gf2(
    rows: list[int], rhs: list[int], num_variables: int, rng: random.Random | None
) -> int | None:
    """Gaussian elimination over GF(2); returns a packed solution or None."""
    system = [(row, b) for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int, int]] = []  # (pivot_bit, row, rhs)
    for row, b in system:
        for pivot_bit, pivot_row, pivot_rhs in pivots:
            if row & (1 << pivot_bit):
                row ^= pivot_row
                b ^= pivot_rhs
        if row == 0:
            if b:
                return None
            continue
        pivot_bit = row.bit_length() - 1
        pivots.append((pivot_bit, row, b))
    solution = 0
    if rng is not None:
        for bit in range(num_variables):
            if rng.random() < 0.5:
                solution |= 1 << bit
        pivot_bits = {p for p, _, _ in pivots}
        for bit in pivot_bits:
            solution &= ~(1 << bit)
    # Back-substitute pivots (process them from lowest dependency upward).
    for pivot_bit, row, b in reversed(pivots):
        value = b
        rest = row & ~(1 << pivot_bit)
        while rest:
            bit = rest & -rest
            if solution & bit:
                value ^= 1
            rest ^= bit
        if value:
            solution |= 1 << pivot_bit
        else:
            solution &= ~(1 << pivot_bit)
    return solution


class XorCompactor:
    """Spatial XOR compactor with per-chain X-masking."""

    def __init__(self, num_chains: int, num_channels: int) -> None:
        if num_channels < 1:
            raise ValueError("need at least one output channel")
        self.num_chains = num_chains
        self.num_channels = num_channels
        self.assignment = [chain % num_channels for chain in range(num_chains)]

    def compact(
        self,
        chain_values: Sequence[Sequence[Logic]],
        mask: Sequence[bool] | None = None,
    ) -> list[list[Logic]]:
        """Compact per-chain unload streams into output channel streams.

        Args:
            chain_values: ``chain_values[chain][cycle]`` unload values.
            mask: Per-chain mask; masked chains do not contribute (X-masking).

        Returns:
            ``channel_values[channel][cycle]``; a cycle is X when any unmasked
            contributing chain is X for that cycle.
        """
        mask = list(mask) if mask is not None else [False] * self.num_chains
        cycles = max((len(v) for v in chain_values), default=0)
        output: list[list[Logic]] = [
            [Logic.ZERO] * cycles for _ in range(self.num_channels)
        ]
        for channel in range(self.num_channels):
            for cycle in range(cycles):
                acc = Logic.ZERO
                for chain in range(self.num_chains):
                    if self.assignment[chain] != channel or mask[chain]:
                        continue
                    values = chain_values[chain]
                    value = values[cycle] if cycle < len(values) else Logic.ZERO
                    acc = acc ^ value
                output[channel][cycle] = acc
        return output


@dataclass
class EdtStatistics:
    """Compression accounting for one pattern set."""

    num_patterns: int
    chain_length: int
    num_chains: int
    num_channels: int
    encoded_patterns: int
    encoding_conflicts: int

    @property
    def compression_ratio(self) -> float:
        """Scan data volume reduction versus direct chain access."""
        internal = self.num_chains * self.chain_length
        external = self.num_channels * self.chain_length
        return internal / external if external else 1.0

    @property
    def tester_cycles_per_pattern(self) -> int:
        return self.chain_length + 2  # shift plus capture overhead

    @property
    def vector_memory_bits(self) -> int:
        """Per-channel stimulus + response storage on the tester."""
        return self.num_patterns * self.tester_cycles_per_pattern * self.num_channels * 2


@dataclass(frozen=True)
class EdtConfig(JsonRecord):
    """Declarative EDT configuration — the design-side compression contract.

    A plain-data counterpart of :class:`EdtArchitecture` that design specs
    can carry (and JSON-serialize): how many external input/output channels
    feed the internal chains and how long the ring generator is.  ``build``
    instantiates the architecture against a concrete scan structure.
    """

    input_channels: int
    output_channels: int | None = None
    lfsr_length: int = 32

    def __post_init__(self) -> None:
        if self.input_channels < 1:
            raise ValueError("an EDT configuration needs at least one input channel")

    def build(self, scan: ScanArchitecture) -> "EdtArchitecture":
        """Instantiate the decompressor/compactor pair for a scan architecture."""
        return EdtArchitecture(
            scan,
            num_input_channels=self.input_channels,
            num_output_channels=self.output_channels,
            lfsr_length=self.lfsr_length,
        )


class EdtArchitecture:
    """Decompressor + compactor pair bound to a scan architecture."""

    def __init__(
        self,
        scan: ScanArchitecture,
        num_input_channels: int,
        num_output_channels: int | None = None,
        lfsr_length: int = 32,
    ) -> None:
        self.scan = scan
        self.decompressor = EdtDecompressor(
            num_channels=num_input_channels,
            num_chains=scan.num_chains,
            lfsr_length=lfsr_length,
        )
        self.compactor = XorCompactor(
            num_chains=scan.num_chains,
            num_channels=num_output_channels or num_input_channels,
        )

    def encode_pattern(self, pattern: TestPattern) -> EdtSolution | None:
        """Encode one pattern's deterministic care bits through the decompressor.

        Only the test cube (the bits ATPG actually specified, recorded in
        ``cube_scan_load``) must be solved; X-filled bits simply take whatever
        the free-running ring generator produces.  Patterns without a recorded
        cube (e.g. hand-built ones) fall back to their full scan load.
        """
        source = pattern.cube_scan_load if pattern.cube_scan_load is not None else pattern.scan_load
        care_bits: dict[tuple[int, int], int] = {}
        for chain_index, chain in enumerate(self.scan.chains):
            for position, cell in enumerate(chain.cells):
                value = source.get(cell, Logic.X)
                if value.is_known:
                    care_bits[(chain_index, position)] = value.to_int()
        return self.decompressor.solve(care_bits, self.scan.max_chain_length)

    def statistics(self, patterns: PatternSet | Sequence[TestPattern]) -> EdtStatistics:
        """Encode a whole pattern set and report compression statistics."""
        encoded = 0
        conflicts = 0
        items = list(patterns)
        for pattern in items:
            if self.encode_pattern(pattern) is not None:
                encoded += 1
            else:
                conflicts += 1
        return EdtStatistics(
            num_patterns=len(items),
            chain_length=self.scan.max_chain_length,
            num_chains=self.scan.num_chains,
            num_channels=self.decompressor.num_channels,
            encoded_patterns=encoded,
            encoding_conflicts=conflicts,
        )
