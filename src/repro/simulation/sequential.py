"""Cycle-based sequential simulation with per-clock-domain pulsing.

This zero-delay simulator applies whole test procedures to a design: scan
shifting, launch/capture pulse bursts per clock domain, RAM reads/writes, and
primary-output strobes.  It is the engine that verifies ATPG patterns
end-to-end (scan load -> CPF pulse burst -> unload) and executes the memory
macro-test example from Section 4 of the paper.

The simulator works on a :class:`~repro.netlist.netlist.Netlist` plus its
flattened :class:`~repro.simulation.model.CircuitModel`; flip-flop state and
RAM contents live in the simulator, and each ``pulse`` call clocks exactly the
clock nets the caller names (the clocking layer decides what those are — an
external scan clock, or the output of a CPF).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.netlist.netlist import Netlist, RamMacro
from repro.logic import Logic
from repro.simulation.model import CircuitModel, build_model
from repro.simulation.scalar_sim import simulate


@dataclass
class RamState:
    """Contents of one RAM macro during simulation."""

    macro: RamMacro
    words: dict[int, tuple[Logic, ...]] = field(default_factory=dict)
    corrupted: bool = False

    def read(self, address: int | None) -> tuple[Logic, ...]:
        width = self.macro.width
        if address is None or self.corrupted:
            return tuple([Logic.X] * width)
        return self.words.get(address, tuple([Logic.X] * width))

    def write(self, address: int | None, data: Sequence[Logic]) -> None:
        if address is None:
            # Writing to an unknown address can corrupt any word.
            self.corrupted = True
            return
        self.words[address] = tuple(data)


class SequentialSimulator:
    """Zero-delay, clock-domain-aware sequential simulator."""

    def __init__(self, netlist: Netlist, model: CircuitModel | None = None) -> None:
        self.netlist = netlist
        self.model = model or build_model(netlist)
        self.state: dict[str, Logic] = {}
        self.latch_state: dict[str, Logic] = {}
        self.pi_values: dict[str, Logic] = {}
        self.rams: dict[str, RamState] = {
            name: RamState(macro=ram) for name, ram in netlist.rams.items()
        }
        self.reset_state()
        # Registered RAM outputs (synchronous read) — held between pulses.
        self._ram_outputs: dict[str, Logic] = {}
        self.cycle_count = 0

    # ------------------------------------------------------------------ state
    def reset_state(self) -> None:
        """Set every flip-flop to its declared init value (X when none)."""
        self.state = {}
        for flop in self.netlist.flops.values():
            self.state[flop.name] = Logic.X if flop.init is None else Logic.from_int(flop.init)
        self.latch_state = {latch.name: Logic.X for latch in self.netlist.latches.values()}
        self._ram_outputs = {}
        self.cycle_count = 0

    def load_state(self, values: Mapping[str, Logic | int]) -> None:
        """Directly set flip-flop states (abstract scan load)."""
        for name, value in values.items():
            if name not in self.state:
                raise KeyError(f"no flip-flop named {name!r}")
            self.state[name] = value if isinstance(value, Logic) else Logic.from_int(value)

    def read_state(self, names: Iterable[str] | None = None) -> dict[str, Logic]:
        """Current flip-flop states (abstract scan unload)."""
        if names is None:
            return dict(self.state)
        return {name: self.state[name] for name in names}

    def set_inputs(self, values: Mapping[str, Logic | int]) -> None:
        """Set primary-input values; they persist until changed."""
        for net, value in values.items():
            self.pi_values[net] = value if isinstance(value, Logic) else Logic.from_int(value)

    # ------------------------------------------------------------- evaluation
    def settle(self) -> list[Logic]:
        """Evaluate the combinational logic for the current state and inputs."""
        assignments: dict[int, Logic] = {}
        for net, value in self.pi_values.items():
            idx = self.model.node_of_net.get(net)
            if idx is not None:
                assignments[idx] = value
        for flop in self.netlist.flops.values():
            assignments[self.model.node_of_net[flop.q]] = self.state[flop.name]
        for latch in self.netlist.latches.values():
            assignments[self.model.node_of_net[latch.q]] = self.latch_state[latch.name]
        for ram in self.netlist.rams.values():
            for i, net in enumerate(ram.data_out):
                assignments[self.model.node_of_net[net]] = self._ram_outputs.get(net, Logic.X)
        return simulate(self.model, assignments)

    def outputs(self, values: Sequence[Logic] | None = None) -> dict[str, Logic]:
        """Primary-output values for the current (or given) evaluation."""
        values = values if values is not None else self.settle()
        return {net: values[idx] for net, idx in self.model.po_nodes}

    # ----------------------------------------------------------------- pulses
    def pulse(self, clock_nets: Iterable[str]) -> dict[str, Logic]:
        """Apply one rising clock edge to the named clock nets.

        All flip-flops whose clock is in ``clock_nets`` capture simultaneously
        from the settled combinational values (including scan-path capture
        when their scan-enable input evaluates to 1).  RAM macros clocked by
        those nets perform one synchronous read/write.

        Returns:
            The values captured into flip-flops, keyed by flip-flop name.
        """
        clocks = set(clock_nets)
        values = self.settle()
        captured: dict[str, Logic] = {}
        for flop in self.netlist.flops.values():
            if flop.clock not in clocks:
                continue
            if flop.reset and self._value_of_net(flop.reset, values) is Logic.ONE:
                captured[flop.name] = Logic.ZERO
                continue
            captured[flop.name] = self._capture_value(flop, values)
        # RAM operations use the pre-edge values too.
        for name, ram_state in self.rams.items():
            macro = ram_state.macro
            if macro.clock not in clocks:
                continue
            address = self._address_of(macro, values)
            write_enable = self._value_of_net(macro.write_enable, values)
            if write_enable is Logic.ONE:
                data = [self._value_of_net(net, values) for net in macro.data_in]
                ram_state.write(address, data)
            elif write_enable is Logic.X:
                ram_state.corrupted = True
            word = ram_state.read(address)
            for net, bit in zip(macro.data_out, word):
                self._ram_outputs[net] = bit
        # Commit flip-flop updates after all captures are computed.
        self.state.update(captured)
        self.cycle_count += 1
        return captured

    def cycle(
        self, inputs: Mapping[str, Logic | int] | None = None, clock_nets: Iterable[str] = ()
    ) -> dict[str, Logic]:
        """Convenience: set inputs, then pulse the given clocks."""
        if inputs:
            self.set_inputs(inputs)
        return self.pulse(clock_nets)

    # ------------------------------------------------------------------- scan
    def scan_shift(
        self,
        chains: Sequence[Sequence[str]],
        scan_in_bits: Sequence[Sequence[Logic | int]],
        scan_enable_net: str,
        shift_clock_nets: Iterable[str],
    ) -> list[list[Logic]]:
        """Shift data through scan chains at full structural detail.

        Args:
            chains: One list of flip-flop names per chain, scan-in first.
            scan_in_bits: Bits to shift into each chain; bit 0 enters first
                and ends up in the *last* cell of the chain.
            scan_enable_net: Net to drive high during shifting.
            shift_clock_nets: Clock nets pulsed during each shift cycle.

        Returns:
            The bits shifted out of each chain (from the chain outputs), in
            shift order.
        """
        max_len = max((len(bits) for bits in scan_in_bits), default=0)
        self.set_inputs({scan_enable_net: Logic.ONE})
        shifted_out: list[list[Logic]] = [[] for _ in chains]
        chain_tail = [chain[-1] if chain else None for chain in chains]
        for step in range(max_len):
            # Drive each chain's external scan-in pin for this shift cycle.
            for chain_index, chain in enumerate(chains):
                bits = scan_in_bits[chain_index]
                value = bits[step] if step < len(bits) else Logic.ZERO
                head = self.netlist.flops[chain[0]]
                if head.scan_in is None:
                    raise ValueError(f"flip-flop {chain[0]!r} has no scan input")
                self.set_inputs({head.scan_in: value})
            for chain_index, tail in enumerate(chain_tail):
                if tail is not None:
                    shifted_out[chain_index].append(self.state[tail])
            self.pulse(shift_clock_nets)
        self.set_inputs({scan_enable_net: Logic.ZERO})
        return shifted_out

    # -------------------------------------------------------------- internals
    def _capture_value(self, flop, values: Sequence[Logic]) -> Logic:
        if flop.is_scan:
            scan_enable = self._value_of_net(flop.scan_enable, values)
            if scan_enable is Logic.ONE:
                return self._value_of_net(flop.scan_in, values)
            if scan_enable is not Logic.ZERO:
                return Logic.X
        if flop.d is None:
            return Logic.X
        return self._value_of_net(flop.d, values)

    def _value_of_net(self, net: str | None, values: Sequence[Logic]) -> Logic:
        if net is None:
            return Logic.X
        idx = self.model.node_of_net.get(net)
        if idx is not None:
            return values[idx]
        return self.pi_values.get(net, Logic.X)

    def _address_of(self, macro: RamMacro, values: Sequence[Logic]) -> int | None:
        bits = [self._value_of_net(net, values) for net in macro.address]
        if any(not bit.is_known for bit in bits):
            return None
        address = 0
        for bit in bits:  # MSB first
            address = (address << 1) | bit.to_int()
        return address
