"""Flattened, levelized combinational circuit model.

Everything compute-intensive in the library (logic simulation, fault
simulation, SCOAP, PODEM) operates on a :class:`CircuitModel` rather than on
the editable :class:`~repro.netlist.netlist.Netlist`.  The model is an array
of :class:`Node` records in topological order:

* one node per primary input (``PI``),
* one node per sequential element output (``PPI`` — pseudo primary input;
  flip-flops and latches both appear here because during a single capture
  frame their outputs are simply state),
* one node per RAM data output (``RAM_OUT`` — unknown unless a RAM-sequential
  pattern drives it),
* one node per combinational gate (``GATE``),
* constant nodes for tie cells.

The model also records, for every flip-flop, the node computing its next
state (the driver of its functional ``D`` pin and of its ``scan_in`` pin),
and the node feeding every primary output.  Time-frame expansion for delay
test builds a larger ``CircuitModel`` out of ``k`` copies of this one
(:mod:`repro.atpg.timeframe`).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

from repro.netlist.gates import GateType
from repro.netlist.netlist import DesignHierarchy, FlipFlop, Netlist


class NodeKind(str, Enum):
    """Role of a node in the flattened model."""

    PI = "PI"
    PPI = "PPI"
    RAM_OUT = "RAM_OUT"
    GATE = "GATE"
    CONST0 = "CONST0"
    CONST1 = "CONST1"


@dataclass(frozen=True)
class Node:
    """One vertex of the levelized circuit graph.

    Attributes:
        index: Position in the model's node list (also its id).
        kind: Structural role.
        net: Name of the net this node drives.
        gtype: Gate type for ``GATE`` nodes, else ``None``.
        fanin: Indices of driver nodes, in pin order (empty for sources).
        level: Topological level (sources are level 0).
        instance: Name of the originating gate/flop/RAM instance, if any.
    """

    index: int
    kind: NodeKind
    net: str
    gtype: GateType | None
    fanin: tuple[int, ...]
    level: int
    instance: str | None = None


@dataclass(frozen=True)
class StateElement:
    """A flip-flop viewed from the model: where its output enters the logic
    and which node computes its next state."""

    flop: FlipFlop
    q_node: int
    d_node: int | None
    scan_in_node: int | None
    clock: str

    @property
    def name(self) -> str:
        return self.flop.name

    @property
    def is_scan(self) -> bool:
        return self.flop.is_scan

    @property
    def scannable(self) -> bool:
        return self.flop.scannable


def fanout_cone(
    nodes: Sequence[Node], fanout: Sequence[tuple[int, ...]], start: int
) -> list[int]:
    """All nodes reachable from ``start`` (excluding it), level-ordered:
    :meth:`CircuitModel.transitive_fanout` over a model's node and fanout
    tables, for holders of those tables that keep no model."""
    seen = {start}
    frontier = [start]
    reached: list[int] = []
    while frontier:
        current = frontier.pop()
        for nxt in fanout[current]:
            if nxt not in seen:
                seen.add(nxt)
                reached.append(nxt)
                frontier.append(nxt)
    reached.sort(key=lambda i: (nodes[i].level, i))
    return reached


@dataclass
class CircuitModel:
    """Levelized combinational view of a netlist (one time frame)."""

    name: str
    nodes: list[Node]
    node_of_net: dict[str, int]
    pi_nodes: list[int]
    ppi_nodes: list[int]
    ram_out_nodes: list[int]
    po_nodes: list[tuple[str, int]]
    state_elements: list[StateElement]
    fanout: list[tuple[int, ...]] = field(default_factory=list)
    max_level: int = 0
    #: Repeated-core instance metadata, carried through from the netlist so
    #: the engine can compile one kernel per unique core
    #: (:mod:`repro.hier.compile`).  ``None`` for flat designs.  Deliberately
    #: excluded from :func:`repro.engine.cache.design_fingerprint`: the
    #: hierarchical and flat kernels produce bit-identical results, so they
    #: share result-cache identity.
    hierarchy: DesignHierarchy | None = None

    def __getstate__(self) -> dict:
        # The engine memoises its compiled kernels on the instance
        # (repro.engine.compile.compile_circuit), diagnosis its candidate
        # universe (repro.diagnose.candidates.candidate_universe), fault
        # collapsing its site table (repro.faults.models.fault_site_table),
        # the frame simulator the good frames of its last pattern set
        # (_frame_memo, repro.fault_sim.transition.FrameSimulator.
        # iter_batches), fail-log capture its layout (_capture_layout,
        # repro.diagnose.faillog.capture_fail_log) and ATPG its views, PODEM
        # tables and fault universes (_atpg_artefacts,
        # repro.atpg.artefacts.atpg_artefacts); closures and locks
        # don't pickle, frames are bulky and every process rebuilds them
        # anyway, so strip the memos.
        state = dict(self.__dict__)
        for memo in (
            "_engine_compiled", "_candidate_universe", "_fault_sites",
            "_frame_memo", "_capture_layout", "_atpg_artefacts",
        ):
            state.pop(memo, None)
        return state

    # ------------------------------------------------------------------ sizes
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def node(self, index: int) -> Node:
        return self.nodes[index]

    def levels(self) -> list[list[int]]:
        """Node indices grouped by topological level (ascending)."""
        buckets: list[list[int]] = [[] for _ in range(self.max_level + 1)]
        for node in self.nodes:
            buckets[node.level].append(node.index)
        return buckets

    def transitive_fanout(self, start: int) -> list[int]:
        """All nodes reachable from ``start`` (excluding it), level-ordered."""
        return fanout_cone(self.nodes, self.fanout, start)

    def transitive_fanin(self, start: int) -> list[int]:
        """All nodes feeding ``start`` (excluding it)."""
        seen = {start}
        frontier = [start]
        reached: list[int] = []
        while frontier:
            current = frontier.pop()
            for prev in self.nodes[current].fanin:
                if prev not in seen:
                    seen.add(prev)
                    reached.append(prev)
                    frontier.append(prev)
        return reached

    def without_hierarchy(self) -> "CircuitModel":
        """A flat-compiling view of this model (shared node arrays).

        The copy drops the hierarchy metadata, so :func:`repro.engine.compile.
        compile_circuit` lowers it through the flat reference path — the
        bit-identity tests compare hierarchical kernels against exactly this.
        """
        clone = CircuitModel(
            name=self.name,
            nodes=self.nodes,
            node_of_net=self.node_of_net,
            pi_nodes=self.pi_nodes,
            ppi_nodes=self.ppi_nodes,
            ram_out_nodes=self.ram_out_nodes,
            po_nodes=self.po_nodes,
            state_elements=self.state_elements,
            fanout=self.fanout,
            max_level=self.max_level,
            hierarchy=None,
        )
        return clone

    def observation_nodes(self, observe_pos: bool = True, observe_flops: bool = True) -> list[int]:
        """Default observation points: PO drivers and flip-flop D drivers."""
        obs: list[int] = []
        if observe_pos:
            obs.extend(idx for _, idx in self.po_nodes)
        if observe_flops:
            obs.extend(e.d_node for e in self.state_elements if e.d_node is not None)
        return sorted(set(obs))


def build_model(netlist: Netlist, treat_clocks_as_inputs: bool = False) -> CircuitModel:
    """Flatten a netlist into a :class:`CircuitModel`.

    Clock nets are excluded from the primary-input list by default because in
    a single capture frame they are not data; pass
    ``treat_clocks_as_inputs=True`` for blocks like the CPF where the clock
    really is data (the CPF filters clock pulses combinationally).

    Args:
        netlist: Source design.
        treat_clocks_as_inputs: Include declared clock nets as PI nodes.

    Returns:
        The levelized model.

    Raises:
        NetlistError: If the combinational logic contains a cycle.
    """
    nodes: list[Node] = []
    node_of_net: dict[str, int] = {}
    pi_nodes: list[int] = []
    ppi_nodes: list[int] = []
    ram_out_nodes: list[int] = []

    def add_node(
        kind: NodeKind,
        net: str,
        gtype: GateType | None = None,
        fanin: tuple[int, ...] = (),
        level: int = 0,
        instance: str | None = None,
    ) -> int:
        index = len(nodes)
        nodes.append(
            Node(index=index, kind=kind, net=net, gtype=gtype, fanin=fanin, level=level,
                 instance=instance)
        )
        node_of_net[net] = index
        return index

    clock_nets = netlist.clock_nets
    for net in netlist.inputs:
        if net in clock_nets and not treat_clocks_as_inputs:
            continue
        pi_nodes.append(add_node(NodeKind.PI, net))

    for flop in sorted(netlist.flops.values(), key=lambda f: f.name):
        ppi_nodes.append(add_node(NodeKind.PPI, flop.q, instance=flop.name))
    for latch in sorted(netlist.latches.values(), key=lambda la: la.name):
        ppi_nodes.append(add_node(NodeKind.PPI, latch.q, instance=latch.name))
    for ram in sorted(netlist.rams.values(), key=lambda r: r.name):
        for net in ram.data_out:
            ram_out_nodes.append(add_node(NodeKind.RAM_OUT, net, instance=ram.name))

    # Gates in topological order.
    for gate in netlist.topological_gate_order():
        if gate.gtype is GateType.TIE0:
            add_node(NodeKind.CONST0, gate.output, gtype=gate.gtype, instance=gate.name)
            continue
        if gate.gtype is GateType.TIE1:
            add_node(NodeKind.CONST1, gate.output, gtype=gate.gtype, instance=gate.name)
            continue
        fanin: list[int] = []
        level = 0
        for net in gate.inputs:
            if net not in node_of_net:
                # Undriven or clock net used as data: materialize a PI node so
                # simulation and ATPG can still reason about it.
                idx = add_node(NodeKind.PI, net)
                pi_nodes.append(idx)
            idx = node_of_net[net]
            fanin.append(idx)
            level = max(level, nodes[idx].level + 1)
        add_node(NodeKind.GATE, gate.output, gtype=gate.gtype, fanin=tuple(fanin),
                 level=level, instance=gate.name)

    # Primary outputs: driver node of each PO net (create PI node for floats).
    po_nodes: list[tuple[str, int]] = []
    for net in netlist.outputs:
        if net not in node_of_net:
            idx = add_node(NodeKind.PI, net)
            pi_nodes.append(idx)
        po_nodes.append((net, node_of_net[net]))

    # State elements (flip-flops only; latch state is not scan-loadable).
    state_elements: list[StateElement] = []
    for flop in sorted(netlist.flops.values(), key=lambda f: f.name):
        d_node = node_of_net.get(flop.d)
        si_node = node_of_net.get(flop.scan_in) if flop.scan_in else None
        state_elements.append(
            StateElement(
                flop=flop,
                q_node=node_of_net[flop.q],
                d_node=d_node,
                scan_in_node=si_node,
                clock=flop.clock,
            )
        )

    fanout_map: dict[int, list[int]] = defaultdict(list)
    for node in nodes:
        for src in node.fanin:
            fanout_map[src].append(node.index)
    fanout = [tuple(sorted(fanout_map.get(i, ()))) for i in range(len(nodes))]
    max_level = max((n.level for n in nodes), default=0)

    return CircuitModel(
        name=netlist.name,
        nodes=nodes,
        node_of_net=node_of_net,
        pi_nodes=pi_nodes,
        ppi_nodes=ppi_nodes,
        ram_out_nodes=ram_out_nodes,
        po_nodes=po_nodes,
        state_elements=state_elements,
        fanout=fanout,
        max_level=max_level,
        hierarchy=getattr(netlist, "hierarchy", None),
    )
