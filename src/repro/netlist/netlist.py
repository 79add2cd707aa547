"""Gate-level netlist data model.

A :class:`Netlist` is a named collection of primitive combinational gates
(:class:`Gate`), sequential elements (:class:`FlipFlop`, :class:`Latch`),
memory macros (:class:`RamMacro`) and primary ports, connected by *nets*.
Nets are plain strings; every net has at most one driver (a primary input, a
gate output, a sequential element output, or a RAM data output).

The model deliberately stays close to what a DFT engineer sees after
synthesis: flat, primitive cells only, with scan attributes annotated on the
flip-flops once scan insertion (:mod:`repro.dft.scan`) has run.
"""

from __future__ import annotations

import copy
from collections import defaultdict, deque
from dataclasses import dataclass, replace
from typing import Mapping

from repro.netlist.gates import GateType


class NetlistError(Exception):
    """Raised for structural errors while building or editing a netlist."""


@dataclass(frozen=True)
class Gate:
    """A primitive combinational cell instance.

    Attributes:
        name: Unique instance name.
        gtype: Primitive cell type.
        inputs: Input net names in pin order.
        output: Output net name.
    """

    name: str
    gtype: GateType
    inputs: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class FlipFlop:
    """A D flip-flop, optionally a (muxed-input) scan cell.

    Attributes:
        name: Unique instance name.
        d: Functional data input net.
        q: Output net.
        clock: Clock net name.
        reset: Optional asynchronous active-high reset net.
        scan_in: Scan data input net (``None`` until scan insertion).
        scan_enable: Scan enable net (``None`` until scan insertion).
        scannable: Whether the cell *may* be converted to a scan cell.  The
            paper's device contains non-scan cells; those keep
            ``scannable=False`` and are only controllable through functional
            (clock-sequential) initialization cycles.
        init: Optional known power-up/reset value (0 or 1); ``None`` means
            unknown (X) at the start of a test.
    """

    name: str
    d: str
    q: str
    clock: str
    reset: str | None = None
    scan_in: str | None = None
    scan_enable: str | None = None
    scannable: bool = True
    init: int | None = None

    @property
    def is_scan(self) -> bool:
        """True once the cell has been stitched into a scan chain."""
        return self.scan_in is not None and self.scan_enable is not None


@dataclass(frozen=True)
class Latch:
    """A level-sensitive transparent latch.

    The latch is transparent while ``enable`` equals ``active_level`` and
    holds its value otherwise.  Latches appear in the glitch-free clock gating
    cell of the CPF (Figure 3 of the paper).
    """

    name: str
    d: str
    q: str
    enable: str
    active_level: int = 0


@dataclass(frozen=True)
class RamMacro:
    """A small synchronous single-port RAM macro.

    Attributes:
        name: Instance name.
        clock: Clock net.
        write_enable: Active-high write enable net.
        address: Address nets, MSB first.
        data_in: Write data nets.
        data_out: Read data nets (registered read).
        depth: Number of words (defaults to ``2**len(address)``).
    """

    name: str
    clock: str
    write_enable: str
    address: tuple[str, ...]
    data_in: tuple[str, ...]
    data_out: tuple[str, ...]
    depth: int | None = None

    @property
    def num_words(self) -> int:
        return self.depth if self.depth is not None else 2 ** len(self.address)

    @property
    def width(self) -> int:
        return len(self.data_in)


@dataclass(frozen=True)
class DesignHierarchy:
    """Instance structure of a hierarchical design, flattened by convention.

    The netlist itself stays flat (every tool downstream sees plain cells);
    hierarchy is carried as *naming* metadata: every cell whose instance name
    starts with ``{prefix}{SEPARATOR}`` belongs to the core instance
    ``prefix``, and ``instances`` maps each instance prefix to the name of
    the unique core type it was stamped out from.  The hierarchical kernel
    compiler (:mod:`repro.hier.compile`) verifies — never trusts — that
    instances of one core type are structurally identical before sharing a
    compiled kernel between them.
    """

    #: Instance prefix -> core type name, in stamp-out order.
    instances: tuple[tuple[str, str], ...]

    SEPARATOR = "__"


@dataclass
class NetlistStats:
    """Size summary of a netlist."""

    num_gates: int
    num_flops: int
    num_scan_flops: int
    num_nonscan_flops: int
    num_latches: int
    num_rams: int
    num_primary_inputs: int
    num_primary_outputs: int
    num_nets: int

    def as_dict(self) -> dict[str, int]:
        return dict(self.__dict__)


class Netlist:
    """A flat gate-level design.

    The class offers the editing operations the rest of the library needs:
    adding cells, querying drivers, levelizing the combinational logic, and
    merging sub-netlists (used when the CPF blocks are stitched next to the
    PLL).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        #: Optional :class:`DesignHierarchy` describing repeated core
        #: instances (set by hierarchical generators; ``copy`` preserves it).
        self.hierarchy: DesignHierarchy | None = None
        self._inputs: list[str] = []
        self._outputs: list[str] = []
        self._gates: dict[str, Gate] = {}
        self._flops: dict[str, FlipFlop] = {}
        self._latches: dict[str, Latch] = {}
        self._rams: dict[str, RamMacro] = {}
        self._clock_nets: set[str] = set()
        # Derived maps, rebuilt lazily.
        self._driver_cache: dict[str, tuple[str, object]] | None = None

    # ------------------------------------------------------------------ ports
    @property
    def inputs(self) -> tuple[str, ...]:
        """Primary input nets, in declaration order."""
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        """Primary output nets, in declaration order."""
        return tuple(self._outputs)

    @property
    def clock_nets(self) -> frozenset[str]:
        """Nets declared as clocks (driven by the ATE or by the PLL/CPF)."""
        return frozenset(self._clock_nets)

    def add_input(self, net: str) -> str:
        if net in self._inputs:
            raise NetlistError(f"primary input {net!r} already declared")
        self._check_net_undriven(net)
        self._inputs.append(net)
        self._driver_added(net, "input", net)
        return net

    def add_output(self, net: str) -> str:
        if net in self._outputs:
            raise NetlistError(f"primary output {net!r} already declared")
        self._outputs.append(net)
        return net

    def declare_clock(self, net: str) -> str:
        """Mark a net as a clock net (it must already exist or be a PI)."""
        self._clock_nets.add(net)
        return net

    # ------------------------------------------------------------------ cells
    @property
    def gates(self) -> Mapping[str, Gate]:
        return dict(self._gates)

    @property
    def flops(self) -> Mapping[str, FlipFlop]:
        return dict(self._flops)

    @property
    def latches(self) -> Mapping[str, Latch]:
        return dict(self._latches)

    @property
    def rams(self) -> Mapping[str, RamMacro]:
        return dict(self._rams)

    def add_gate(self, gate: Gate) -> Gate:
        self._check_instance_name(gate.name)
        self._check_net_undriven(gate.output)
        if len(set(gate.inputs)) != len(gate.inputs) and gate.gtype not in (
            GateType.XOR,
            GateType.XNOR,
        ):
            # Repeated inputs are legal but almost always a generator bug;
            # they are allowed only where they are logically meaningful.
            pass
        self._gates[gate.name] = gate
        self._driver_added(gate.output, "gate", gate)
        return gate

    def add_flop(self, flop: FlipFlop) -> FlipFlop:
        self._check_instance_name(flop.name)
        self._check_net_undriven(flop.q)
        self._flops[flop.name] = flop
        self._clock_nets.add(flop.clock)
        self._driver_added(flop.q, "flop", flop)
        return flop

    def add_latch(self, latch: Latch) -> Latch:
        self._check_instance_name(latch.name)
        self._check_net_undriven(latch.q)
        self._latches[latch.name] = latch
        self._driver_added(latch.q, "latch", latch)
        return latch

    def add_ram(self, ram: RamMacro) -> RamMacro:
        self._check_instance_name(ram.name)
        for net in ram.data_out:
            self._check_net_undriven(net)
        self._rams[ram.name] = ram
        self._clock_nets.add(ram.clock)
        for net in ram.data_out:
            self._driver_added(net, "ram", ram)
        return ram

    def replace_flop(self, name: str, new_flop: FlipFlop) -> FlipFlop:
        """Replace an existing flip-flop (used by scan insertion)."""
        if name not in self._flops:
            raise NetlistError(f"no flip-flop named {name!r}")
        if new_flop.name != name:
            raise NetlistError("replacement flop must keep the instance name")
        old = self._flops[name]
        self._flops[name] = new_flop
        self._clock_nets.add(new_flop.clock)
        if self._driver_cache is not None:
            if old.q != new_flop.q:
                self._driver_cache.pop(old.q, None)
            self._driver_cache[new_flop.q] = ("flop", new_flop)
        return new_flop

    # -------------------------------------------------------------- structure
    def all_nets(self) -> set[str]:
        """Every net name referenced anywhere in the design."""
        nets: set[str] = set(self._inputs) | set(self._outputs) | set(self._clock_nets)
        for gate in self._gates.values():
            nets.update(gate.inputs)
            nets.add(gate.output)
        for flop in self._flops.values():
            nets.add(flop.d)
            nets.add(flop.q)
            nets.add(flop.clock)
            if flop.reset:
                nets.add(flop.reset)
            if flop.scan_in:
                nets.add(flop.scan_in)
            if flop.scan_enable:
                nets.add(flop.scan_enable)
        for latch in self._latches.values():
            nets.update((latch.d, latch.q, latch.enable))
        for ram in self._rams.values():
            nets.add(ram.clock)
            nets.add(ram.write_enable)
            nets.update(ram.address)
            nets.update(ram.data_in)
            nets.update(ram.data_out)
        return nets

    def driver_of(self, net: str) -> tuple[str, object] | None:
        """Return ``(kind, element)`` driving a net.

        ``kind`` is one of ``"input"``, ``"gate"``, ``"flop"``, ``"latch"``,
        ``"ram"``.  Returns ``None`` for undriven (floating) nets.
        """
        return self._drivers().get(net)

    def scan_flops(self) -> list[FlipFlop]:
        """Flip-flops that are part of scan chains, in name order."""
        return sorted((f for f in self._flops.values() if f.is_scan), key=lambda f: f.name)

    def nonscan_flops(self) -> list[FlipFlop]:
        return sorted((f for f in self._flops.values() if not f.is_scan), key=lambda f: f.name)

    def topological_gate_order(self) -> list[Gate]:
        """Gates ordered so that every gate appears after its combinational drivers.

        Sequential element outputs, primary inputs, clock nets and RAM outputs
        are treated as sources.  Raises :class:`NetlistError` when the
        combinational logic contains a cycle.
        """
        sources = self._source_nets()
        # Kahn's algorithm over gates.
        producers: dict[str, str] = {g.output: g.name for g in self._gates.values()}
        indegree: dict[str, int] = {}
        dependents: dict[str, list[str]] = defaultdict(list)
        for gate in self._gates.values():
            count = 0
            for net in gate.inputs:
                if net in producers:
                    count += 1
                    dependents[producers[net]].append(gate.name)
                elif net not in sources:
                    # Undriven net: simulators will treat it as X; the
                    # validator reports it, ordering does not care.
                    continue
            indegree[gate.name] = count
        ready = deque(sorted(name for name, deg in indegree.items() if deg == 0))
        order: list[Gate] = []
        while ready:
            name = ready.popleft()
            order.append(self._gates[name])
            for dep in dependents.get(name, ()):
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    ready.append(dep)
        if len(order) != len(self._gates):
            cyclic = sorted(set(self._gates) - {g.name for g in order})
            raise NetlistError(f"combinational cycle involving gates: {cyclic[:8]}")
        return order

    def stats(self) -> NetlistStats:
        scan = sum(1 for f in self._flops.values() if f.is_scan)
        return NetlistStats(
            num_gates=len(self._gates),
            num_flops=len(self._flops),
            num_scan_flops=scan,
            num_nonscan_flops=len(self._flops) - scan,
            num_latches=len(self._latches),
            num_rams=len(self._rams),
            num_primary_inputs=len(self._inputs),
            num_primary_outputs=len(self._outputs),
            num_nets=len(self.all_nets()),
        )

    def copy(self, name: str | None = None) -> "Netlist":
        """Deep copy of the netlist, optionally under a new name."""
        duplicate = copy.deepcopy(self)
        if name is not None:
            duplicate.name = name
        return duplicate

    def merge(self, other: "Netlist", prefix: str = "") -> None:
        """Merge another netlist's cells into this one.

        Instance names from ``other`` are prefixed with ``prefix``; net names
        are kept verbatim so the caller controls connectivity by choosing net
        names (this is how CPF blocks are stitched between PLL output nets and
        domain clock nets).
        """
        for gate in other._gates.values():
            self.add_gate(replace(gate, name=prefix + gate.name))
        for flop in other._flops.values():
            self.add_flop(replace(flop, name=prefix + flop.name))
        for latch in other._latches.values():
            self.add_latch(replace(latch, name=prefix + latch.name))
        for ram in other._rams.values():
            self.add_ram(replace(ram, name=prefix + ram.name))
        for net in other._inputs:
            if net not in self._inputs and self.driver_of(net) is None:
                # Only become a primary input if nothing in the merged design drives it.
                self._inputs.append(net)
        for net in other._outputs:
            if net not in self._outputs:
                self._outputs.append(net)
        self._clock_nets.update(other._clock_nets)
        self._invalidate()

    # ------------------------------------------------------------------ utils
    def _source_nets(self) -> set[str]:
        sources: set[str] = set(self._inputs) | set(self._clock_nets)
        for flop in self._flops.values():
            sources.add(flop.q)
        for latch in self._latches.values():
            sources.add(latch.q)
        for ram in self._rams.values():
            sources.update(ram.data_out)
        return sources

    def _drivers(self) -> dict[str, tuple[str, object]]:
        if self._driver_cache is None:
            drivers: dict[str, tuple[str, object]] = {}
            for net in self._inputs:
                drivers[net] = ("input", net)
            for gate in self._gates.values():
                drivers[gate.output] = ("gate", gate)
            for flop in self._flops.values():
                drivers[flop.q] = ("flop", flop)
            for latch in self._latches.values():
                drivers[latch.q] = ("latch", latch)
            for ram in self._rams.values():
                for net in ram.data_out:
                    drivers[net] = ("ram", ram)
            self._driver_cache = drivers
        return self._driver_cache

    def _check_instance_name(self, name: str) -> None:
        if (
            name in self._gates
            or name in self._flops
            or name in self._latches
            or name in self._rams
        ):
            raise NetlistError(f"instance name {name!r} already used")

    def _check_net_undriven(self, net: str) -> None:
        driver = self._drivers().get(net)
        if driver is not None:
            raise NetlistError(f"net {net!r} already driven by {driver[0]} {driver[1]!r}")

    def _invalidate(self) -> None:
        self._driver_cache = None

    def _driver_added(self, net: str, kind: str, cell: object) -> None:
        """Record a new driver incrementally instead of dropping the cache.

        ``add_*`` is the inner loop of every generator; rebuilding the
        driver map per added cell made construction quadratic in design
        size.
        """
        if self._driver_cache is not None:
            self._driver_cache[net] = (kind, cell)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (
            f"<Netlist {self.name!r}: {s.num_gates} gates, {s.num_flops} flops, "
            f"{s.num_primary_inputs} PIs, {s.num_primary_outputs} POs>"
        )
