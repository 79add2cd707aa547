"""Event-driven timing simulation with per-gate delays.

Unlike the zero-delay cycle simulators, this engine assigns every primitive
gate its library delay and models flip-flops and latches explicitly, so it
can demonstrate the CPF's *timing* behaviour: that the clock gating cell
produces no glitches, that exactly two full-width PLL pulses appear at
``clk_out`` and that the enable window opens three PLL cycles after the
scan-clk trigger (Figure 4 of the paper).

Stimulus is supplied as per-input waveforms (lists of ``(time, value)``
changes); the simulator produces a :class:`~repro.simulation.waveform.Waveform`
containing the full history of every net.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import Mapping, Sequence

from repro.netlist.gates import GateType, evaluate_gate
from repro.netlist.library import DEFAULT_LIBRARY, CellInfo, FLOP_INFO, LATCH_INFO
from repro.netlist.netlist import FlipFlop, Gate, Latch, Netlist
from repro.logic import Logic
from repro.simulation.waveform import Waveform


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    net: str = field(compare=False)
    value: Logic = field(compare=False)


class EventSimulator:
    """Gate-level event-driven simulator over a :class:`Netlist`.

    Args:
        netlist: Design to simulate (combinational gates, flip-flops, latches;
            RAM macros are not supported by the timing engine — they never
            appear inside clock-generation logic).
        library: Optional map of per-gate-type delays; defaults to the 130nm
            numbers from :mod:`repro.netlist.library`.
        default_gate_delay: Fallback delay for gate types missing from the
            library.
    """

    def __init__(
        self,
        netlist: Netlist,
        library: Mapping[GateType, CellInfo] | None = None,
        default_gate_delay: float = 30.0,
        flop_clk_to_q: float = FLOP_INFO.delay_ps,
        latch_delay: float = LATCH_INFO.delay_ps,
    ) -> None:
        if netlist.rams:
            raise ValueError("EventSimulator does not support RAM macros")
        self.netlist = netlist
        self.library = dict(library or DEFAULT_LIBRARY)
        self.default_gate_delay = default_gate_delay
        self.flop_clk_to_q = flop_clk_to_q
        self.latch_delay = latch_delay

        self._values: dict[str, Logic] = {net: Logic.X for net in netlist.all_nets()}
        self._flop_state: dict[str, Logic] = {}
        self._queue: list[_Event] = []
        self._seq = count()
        self.waveform = Waveform()
        self.now = 0.0

        # Sink maps for event propagation.
        self._gate_sinks: dict[str, list[Gate]] = {}
        self._flop_clock_sinks: dict[str, list[FlipFlop]] = {}
        self._flop_reset_sinks: dict[str, list[FlipFlop]] = {}
        self._latch_sinks: dict[str, list[Latch]] = {}
        for gate in netlist.gates.values():
            for net in gate.inputs:
                self._gate_sinks.setdefault(net, []).append(gate)
        for flop in netlist.flops.values():
            self._flop_clock_sinks.setdefault(flop.clock, []).append(flop)
            if flop.reset:
                self._flop_reset_sinks.setdefault(flop.reset, []).append(flop)
            self._flop_state[flop.name] = Logic.X if flop.init is None else Logic.from_int(flop.init)
        for latch in netlist.latches.values():
            for net in (latch.d, latch.enable):
                self._latch_sinks.setdefault(net, []).append(latch)

    # ----------------------------------------------------------------- values
    def value(self, net: str) -> Logic:
        """Current value of a net."""
        return self._values[net]

    def _gate_delay(self, gate: Gate) -> float:
        info = self.library.get(gate.gtype)
        return info.delay_ps if info is not None else self.default_gate_delay

    # --------------------------------------------------------------- schedule
    def schedule(self, net: str, value: Logic, time: float) -> None:
        """Schedule a value change on a net at an absolute time."""
        if time < self.now:
            raise ValueError("cannot schedule events in the past")
        heapq.heappush(self._queue, _Event(time=time, seq=next(self._seq), net=net, value=value))

    def apply_stimulus(self, stimulus: Mapping[str, Sequence[tuple[float, Logic | int]]]) -> None:
        """Schedule a set of input waveforms.

        Args:
            stimulus: Map of net name to ``(time, value)`` change lists.
        """
        for net, changes in stimulus.items():
            for time, value in changes:
                logic = value if isinstance(value, Logic) else Logic.from_int(value)
                self.schedule(net, logic, time)

    # -------------------------------------------------------------------- run
    def initialize(self, initial: Mapping[str, Logic | int] | None = None) -> None:
        """Set time-zero values (defaults X) and settle combinational logic."""
        for net, value in (initial or {}).items():
            logic = value if isinstance(value, Logic) else Logic.from_int(value)
            self._values[net] = logic
            self.waveform.record(net, 0.0, logic)
        for flop in self.netlist.flops.values():
            state = self._flop_state[flop.name]
            self._values[flop.q] = state
            self.waveform.record(flop.q, 0.0, state)
        # Settle combinational logic at time zero with zero cost events.
        for gate in self.netlist.topological_gate_order():
            new = evaluate_gate(gate.gtype, [self._values[n] for n in gate.inputs])
            self._values[gate.output] = new
            self.waveform.record(gate.output, 0.0, new)

    def run(self, until: float) -> Waveform:
        """Process events until the given absolute time; returns the waveform."""
        while self._queue and self._queue[0].time <= until:
            event = heapq.heappop(self._queue)
            self.now = event.time
            self._commit(event.net, event.value)
        self.now = max(self.now, until)
        self.waveform.end_time = max(self.waveform.end_time, until)
        return self.waveform

    # -------------------------------------------------------------- internals
    def _commit(self, net: str, value: Logic) -> None:
        old = self._values.get(net, Logic.X)
        if value is old:
            return
        self._values[net] = value
        self.waveform.record(net, self.now, value)

        for gate in self._gate_sinks.get(net, ()):
            new = evaluate_gate(gate.gtype, [self._values[n] for n in gate.inputs])
            self.schedule(gate.output, new, self.now + self._gate_delay(gate))

        rising = old is not Logic.ONE and value is Logic.ONE
        for flop in self._flop_clock_sinks.get(net, ()):
            if not rising:
                continue
            if flop.reset and self._values.get(flop.reset) is Logic.ONE:
                captured = Logic.ZERO
            else:
                captured = self._capture_value(flop)
            self._flop_state[flop.name] = captured
            self.schedule(flop.q, captured, self.now + self.flop_clk_to_q)
        for flop in self._flop_reset_sinks.get(net, ()):
            if value is Logic.ONE:
                self._flop_state[flop.name] = Logic.ZERO
                self.schedule(flop.q, Logic.ZERO, self.now + self.flop_clk_to_q)

        for latch in self._latch_sinks.get(net, ()):
            enable = self._values.get(latch.enable, Logic.X)
            active = Logic.from_int(latch.active_level)
            if enable is active:
                self.schedule(latch.q, self._values.get(latch.d, Logic.X), self.now + self.latch_delay)
            elif enable is Logic.X:
                self.schedule(latch.q, Logic.X, self.now + self.latch_delay)

    def _capture_value(self, flop: FlipFlop) -> Logic:
        """Value a flip-flop captures on an active clock edge (scan aware)."""
        if flop.is_scan:
            scan_enable = self._values.get(flop.scan_enable, Logic.X)
            if scan_enable is Logic.ONE:
                return self._values.get(flop.scan_in, Logic.X)
            if scan_enable is Logic.X:
                return Logic.X
        return self._values.get(flop.d, Logic.X)


def clock_stimulus(
    period: float,
    num_cycles: int,
    start: float = 0.0,
    duty: float = 0.5,
    initial_low: bool = True,
) -> list[tuple[float, Logic]]:
    """Build a periodic clock stimulus waveform.

    Args:
        period: Clock period in the simulator's time unit.
        num_cycles: Number of full cycles to generate.
        start: Time of the first rising edge.
        duty: High-time fraction of the period.
        initial_low: Emit an initial 0 at time zero.

    Returns:
        A ``(time, value)`` change list suitable for ``apply_stimulus``.
    """
    changes: list[tuple[float, Logic]] = []
    if initial_low:
        changes.append((0.0, Logic.ZERO))
    for cycle in range(num_cycles):
        rise = start + cycle * period
        fall = rise + duty * period
        changes.append((rise, Logic.ONE))
        changes.append((fall, Logic.ZERO))
    return changes

