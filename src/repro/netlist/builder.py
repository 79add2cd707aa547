"""Fluent helper for constructing netlists programmatically.

Circuit generators (:mod:`repro.circuits`) and the CPF construction code
(:mod:`repro.clocking.cpf`) use this builder so that instance and net names
stay unique and readable without manual bookkeeping.
"""

from __future__ import annotations

from itertools import count
from typing import Sequence

from repro.netlist.gates import GateType
from repro.netlist.netlist import FlipFlop, Gate, Latch, Netlist, RamMacro


class NetlistBuilder:
    """Incrementally build a :class:`~repro.netlist.netlist.Netlist`.

    Every ``gate``/``flop`` call returns the *output net name*, so expressions
    compose naturally::

        b = NetlistBuilder("adder")
        a, c = b.input("a"), b.input("c")
        s = b.gate(GateType.XOR, [a, c])
        b.output_from(s, "sum")
    """

    def __init__(self, name: str, instance_prefix: str = "u") -> None:
        self.netlist = Netlist(name)
        self._prefix = instance_prefix
        self._gate_counter = count()
        self._net_counter = count()

    # ----------------------------------------------------------------- naming
    def fresh_net(self, hint: str = "n") -> str:
        """Return a new unique internal net name."""
        return f"{hint}_{next(self._net_counter)}"

    def _fresh_instance(self, hint: str) -> str:
        return f"{self._prefix}_{hint}_{next(self._gate_counter)}"

    # ------------------------------------------------------------------ ports
    def input(self, net: str) -> str:
        """Declare a primary input and return its net name."""
        return self.netlist.add_input(net)

    def inputs(self, prefix: str, width: int) -> list[str]:
        """Declare a bus of primary inputs ``prefix_0 .. prefix_{width-1}``."""
        return [self.input(f"{prefix}_{i}") for i in range(width)]

    def output_from(self, net: str, port: str | None = None) -> str:
        """Expose an existing net as a primary output.

        When ``port`` differs from ``net`` a buffer is inserted so the output
        port has its own net name.
        """
        if port is None or port == net:
            self.netlist.add_output(net)
            return net
        self.gate(GateType.BUF, [net], output=port)
        self.netlist.add_output(port)
        return port

    def clock(self, net: str, primary: bool = True) -> str:
        """Declare a clock net (optionally also as a primary input)."""
        if primary and net not in self.netlist.inputs:
            self.netlist.add_input(net)
        self.netlist.declare_clock(net)
        return net

    # ------------------------------------------------------------------ cells
    def gate(
        self,
        gtype: GateType,
        inputs: Sequence[str],
        output: str | None = None,
        name: str | None = None,
    ) -> str:
        """Add a primitive gate; returns the output net name."""
        out = output or self.fresh_net(gtype.value.lower())
        inst = name or self._fresh_instance(gtype.value.lower())
        self.netlist.add_gate(Gate(name=inst, gtype=gtype, inputs=tuple(inputs), output=out))
        return out

    def buf(self, src: str, output: str | None = None) -> str:
        return self.gate(GateType.BUF, [src], output=output)

    def inv(self, src: str, output: str | None = None) -> str:
        return self.gate(GateType.NOT, [src], output=output)

    def and_(self, inputs: Sequence[str], output: str | None = None) -> str:
        return self.gate(GateType.AND, inputs, output=output)

    def nand(self, inputs: Sequence[str], output: str | None = None) -> str:
        return self.gate(GateType.NAND, inputs, output=output)

    def or_(self, inputs: Sequence[str], output: str | None = None) -> str:
        return self.gate(GateType.OR, inputs, output=output)

    def nor(self, inputs: Sequence[str], output: str | None = None) -> str:
        return self.gate(GateType.NOR, inputs, output=output)

    def xor(self, inputs: Sequence[str], output: str | None = None) -> str:
        return self.gate(GateType.XOR, inputs, output=output)

    def mux(self, sel: str, a: str, b: str, output: str | None = None) -> str:
        """2:1 mux returning ``a`` when ``sel`` is 0 and ``b`` when ``sel`` is 1."""
        return self.gate(GateType.MUX2, [sel, a, b], output=output)

    def tie0(self, output: str | None = None) -> str:
        return self.gate(GateType.TIE0, [], output=output)

    def tie1(self, output: str | None = None) -> str:
        return self.gate(GateType.TIE1, [], output=output)

    def flop(
        self,
        d: str,
        clock: str,
        q: str | None = None,
        name: str | None = None,
        reset: str | None = None,
        scannable: bool = True,
        init: int | None = None,
    ) -> str:
        """Add a D flip-flop; returns the Q net name."""
        out = q or self.fresh_net("q")
        inst = name or self._fresh_instance("dff")
        self.netlist.add_flop(
            FlipFlop(
                name=inst,
                d=d,
                q=out,
                clock=clock,
                reset=reset,
                scannable=scannable,
                init=init,
            )
        )
        return out

    def latch(
        self,
        d: str,
        enable: str,
        q: str | None = None,
        name: str | None = None,
        active_level: int = 0,
    ) -> str:
        """Add a transparent latch; returns the Q net name."""
        out = q or self.fresh_net("lq")
        inst = name or self._fresh_instance("lat")
        self.netlist.add_latch(
            Latch(name=inst, d=d, q=out, enable=enable, active_level=active_level)
        )
        return out

    def ram(
        self,
        clock: str,
        write_enable: str,
        address: Sequence[str],
        data_in: Sequence[str],
        width: int | None = None,
        name: str | None = None,
    ) -> list[str]:
        """Add a synchronous RAM macro; returns the data output nets."""
        inst = name or self._fresh_instance("ram")
        width = width if width is not None else len(data_in)
        data_out = [self.fresh_net(f"{inst}_do") for _ in range(width)]
        self.netlist.add_ram(
            RamMacro(
                name=inst,
                clock=clock,
                write_enable=write_enable,
                address=tuple(address),
                data_in=tuple(data_in),
                data_out=tuple(data_out),
            )
        )
        return data_out

    # -------------------------------------------------------------- composites
    def reduce_tree(self, gtype: GateType, nets: Sequence[str]) -> str:
        """Build a balanced tree of 2-input gates reducing ``nets`` to one net."""
        if not nets:
            raise ValueError("reduce_tree needs at least one net")
        level = list(nets)
        if len(level) == 1:
            return self.buf(level[0])
        while len(level) > 1:
            nxt: list[str] = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(self.gate(gtype, [level[i], level[i + 1]]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def ripple_adder(
        self, bus_a: Sequence[str], bus_b: Sequence[str], carry_in: str | None = None
    ) -> tuple[list[str], str]:
        """Build a ripple-carry adder; returns (sum bits, carry out)."""
        if len(bus_a) != len(bus_b):
            raise ValueError("adder requires equal bus widths")
        carry = carry_in or self.tie0()
        sums: list[str] = []
        for a, b in zip(bus_a, bus_b):
            axb = self.xor([a, b])
            sums.append(self.xor([axb, carry]))
            carry = self.or_([self.and_([a, b]), self.and_([axb, carry])])
        return sums, carry

    def counter(self, width: int, clock: str, enable: str, prefix: str = "cnt") -> list[str]:
        """A binary up-counter with synchronous enable; returns state nets."""
        state = [self.fresh_net(f"{prefix}{i}_q") for i in range(width)]
        ones = self.tie1()
        inc, _ = self.ripple_adder(state, [ones] + [self.tie0() for _ in range(width - 1)])
        for i in range(width):
            nxt = self.mux(enable, state[i], inc[i])
            self.flop(nxt, clock, q=state[i], name=f"{prefix}_{i}_{next(self._gate_counter)}")
        return state

    def build(self) -> Netlist:
        """Return the constructed netlist."""
        return self.netlist

    # Convenience for typing `with NetlistBuilder(...) as b:` in examples.
    def __enter__(self) -> "NetlistBuilder":  # pragma: no cover - convenience
        return self

    def __exit__(self, *exc: object) -> None:  # pragma: no cover - convenience
        return None
