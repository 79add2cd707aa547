"""Structural analyses shared by the rules and the untestability prover.

Everything here is pure graph/constant reasoning over the editable
:class:`~repro.netlist.netlist.Netlist` or the levelized
:class:`~repro.simulation.model.CircuitModel` — no pattern is ever
simulated.  The pieces:

* :func:`combinational_sccs` — Tarjan SCCs over the gate graph, the basis of
  loop *enumeration* (the netlist's own Kahn sort only says "a cycle
  exists"; the SCCs say which gates form which loop).
* :func:`constant_values` — three-valued constant propagation from tie
  cells and constrained pins; the hard facts behind redundancy proofs and
  propagation blocking.
* :func:`pin_unblocked` / :func:`observing_nodes` — side-input blocking
  analysis: through which gate pins can a fault effect still move once the
  constants are folded in, and which nodes retain an unblocked path to an
  observation point.
* :func:`extract_domain_crossings` — launch-Q → capture-D clock-domain
  crossings, resolved with one backward cone walk per capture flop.
* :func:`x_sources` / :func:`trace_shift_source` — X-generator enumeration
  and scan-path tracing through buffers and lockup latches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.clocking.domains import ClockDomainMap
from repro.netlist.gates import GateType, evaluate_gate
from repro.netlist.netlist import Netlist
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind


# --------------------------------------------------------------------------
# Combinational loops (SCC)
# --------------------------------------------------------------------------
def combinational_sccs(netlist: Netlist) -> list[list[str]]:
    """Non-trivial strongly connected components of the gate graph.

    Returns one sorted gate-name list per loop: every component with more
    than one gate, plus single gates that feed themselves.  An acyclic
    netlist yields ``[]``.
    """
    gates = netlist.gates
    driver: dict[str, str] = {g.output: g.name for g in gates.values()}
    successors: dict[str, list[str]] = {name: [] for name in gates}
    for gate in gates.values():
        for net in gate.inputs:
            source = driver.get(net)
            if source is not None:
                successors[source].append(gate.name)

    # Iterative Tarjan (explicit stack: recursion depth is unbounded on long
    # buffer chains).
    index_of: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    counter = 0
    components: list[list[str]] = []

    for root in gates:
        if root in index_of:
            continue
        work: list[tuple[str, int]] = [(root, 0)]
        while work:
            name, child = work[-1]
            if child == 0:
                index_of[name] = low[name] = counter
                counter += 1
                stack.append(name)
                on_stack.add(name)
            advanced = False
            succ = successors[name]
            while child < len(succ):
                nxt = succ[child]
                child += 1
                if nxt not in index_of:
                    work[-1] = (name, child)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[name] = min(low[name], index_of[nxt])
            if advanced:
                continue
            work.pop()
            if low[name] == index_of[name]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == name:
                        break
                if len(component) > 1 or name in successors[name]:
                    components.append(sorted(component))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[name])
    components.sort()
    return components


# --------------------------------------------------------------------------
# Constant propagation
# --------------------------------------------------------------------------
def constant_values(
    model: CircuitModel, constraints: Mapping[str, Logic] | None = None
) -> dict[int, Logic]:
    """Provable constants per node index under the given pin constraints.

    Primary inputs take their constrained value (else X), every sequential
    output (PPI) and RAM output is X, tie cells are their constants, and
    gates evaluate in topological (index) order over 4-valued logic.  Only
    nodes that resolve to a hard 0/1 appear in the result — these hold in
    *every* frame of *every* pattern the constrained ATPG can apply.
    """
    fixed = dict(constraints or {})
    values: list[Logic] = [Logic.X] * model.num_nodes
    for node in model.nodes:
        if node.kind is NodeKind.PI:
            values[node.index] = fixed.get(node.net, Logic.X)
        elif node.kind is NodeKind.CONST0:
            values[node.index] = Logic.ZERO
        elif node.kind is NodeKind.CONST1:
            values[node.index] = Logic.ONE
        elif node.kind is NodeKind.GATE and node.gtype is not None:
            values[node.index] = evaluate_gate(
                node.gtype, [values[i] for i in node.fanin]
            )
        # PPI / RAM_OUT stay X.
    return {
        i: v for i, v in enumerate(values) if v in (Logic.ZERO, Logic.ONE)
    }


# --------------------------------------------------------------------------
# Propagation blocking / observability closure
# --------------------------------------------------------------------------
def pin_unblocked(
    model: CircuitModel, const: Mapping[int, Logic], node_index: int, pin: int
) -> bool:
    """Can a value change on input ``pin`` still move ``node``'s output?

    Conservative (never claims "blocked" unless provable from constants):
    an AND/NAND side input constant 0 or an OR/NOR side input constant 1
    forces the output; a MUX2 data pin is dead when the select constant
    points the other way, and a select change is dead when both data inputs
    are provably equal constants.
    """
    node = model.nodes[node_index]
    gtype = node.gtype
    if gtype is None:
        return True
    fanin = node.fanin
    if gtype in (GateType.AND, GateType.NAND):
        return not any(
            const.get(src) is Logic.ZERO
            for i, src in enumerate(fanin)
            if i != pin
        )
    if gtype in (GateType.OR, GateType.NOR):
        return not any(
            const.get(src) is Logic.ONE
            for i, src in enumerate(fanin)
            if i != pin
        )
    if gtype is GateType.MUX2:
        select = const.get(fanin[0])
        if pin == 1:
            return select is not Logic.ONE
        if pin == 2:
            return select is not Logic.ZERO
        a, b = const.get(fanin[1]), const.get(fanin[2])
        return not (a is not None and a is b)
    return True


def observing_nodes(
    model: CircuitModel,
    const: Mapping[int, Logic],
    observation: set[int],
) -> list[bool]:
    """Per-node flag: does an unblocked path exist to an observation point?

    Node indices are topological, so one reverse sweep resolves the closure:
    a node observes if it *is* an observation point, or some fanout gate is
    observing and the pin(s) it feeds are not blocked by constants.
    """
    observing = [False] * model.num_nodes
    for index in range(model.num_nodes - 1, -1, -1):
        if index in observation:
            observing[index] = True
            continue
        for successor in model.fanout[index]:
            if not observing[successor]:
                continue
            fanin = model.nodes[successor].fanin
            if any(
                src == index and pin_unblocked(model, const, successor, pin)
                for pin, src in enumerate(fanin)
            ):
                observing[index] = True
                break
    return observing


# --------------------------------------------------------------------------
# Clock-domain crossings
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class DomainCrossing:
    """One launch-Q → capture-D path between different clock domains."""

    launch_domain: str
    capture_domain: str
    launch_flop: str
    capture_flop: str

    @property
    def pair(self) -> tuple[str, str]:
        return (self.launch_domain, self.capture_domain)


def extract_domain_crossings(
    model: CircuitModel, domain_map: ClockDomainMap
) -> list[DomainCrossing]:
    """Every combinational path from a flop Q in one domain to a flop D in
    another.

    One backward cone walk per capture flop (``transitive_fanin`` stops at
    PI/PPI sources, so each walk touches one combinational cone, not the
    whole circuit), with launch flops found by Q-node lookup inside the
    cone.  Work is therefore linear in total cone size — the former
    launch×capture pair loop was what made the structural lint superlinear
    on designs with thousands of flops.
    """
    assigned = [
        (element, domain_map.domain_of(element.name))
        for element in model.state_elements
    ]
    launch_by_q = {
        element.q_node: (element, domain)
        for element, domain in assigned
        if domain is not None and element.q_node is not None
    }
    crossings: list[DomainCrossing] = []
    for capture, capture_domain in assigned:
        if capture_domain is None or capture.d_node is None:
            continue
        # The D net may itself be a launch Q (direct flop-to-flop path).
        for node in (capture.d_node, *model.transitive_fanin(capture.d_node)):
            hit = launch_by_q.get(node)
            if hit is None:
                continue
            launch, launch_domain = hit
            if launch_domain == capture_domain:
                continue
            crossings.append(
                DomainCrossing(
                    launch_domain=launch_domain,
                    capture_domain=capture_domain,
                    launch_flop=launch.name,
                    capture_flop=capture.name,
                )
            )
    crossings.sort(
        key=lambda c: (c.launch_domain, c.capture_domain, c.launch_flop, c.capture_flop)
    )
    return crossings


# --------------------------------------------------------------------------
# X sources and scan-path tracing
# --------------------------------------------------------------------------
def x_sources(model: CircuitModel) -> dict[int, str]:
    """Node index -> kind for every structural X generator: non-scan flop
    outputs, latch outputs and RAM read ports (none is load/controllable
    during scan test)."""
    sources: dict[int, str] = {}
    scan_names = {e.name for e in model.state_elements if e.is_scan}
    flop_names = {e.name for e in model.state_elements}
    for index in model.ppi_nodes:
        node = model.nodes[index]
        if node.instance is not None and node.instance not in scan_names:
            kind = "nonscan-flop" if node.instance in flop_names else "latch"
            sources[index] = kind
    for index in model.ram_out_nodes:
        sources[index] = "ram"
    return sources


def trace_shift_source(
    netlist: Netlist, net: str, limit: int = 16
) -> tuple[str, bool]:
    """Walk a scan-shift net back through buffers and lockup latches.

    Returns ``(source_net, saw_latch)`` — the first net that is neither a
    BUF output nor a latch output (typically a flop Q or a scan-in port),
    and whether a latch (lockup element) was crossed on the way.
    """
    current = net
    saw_latch = False
    for _ in range(limit):
        driver = netlist.driver_of(current)
        if driver is None:
            return current, saw_latch
        kind, element = driver
        if kind == "gate" and element.gtype is GateType.BUF:
            current = element.inputs[0]
            continue
        if kind == "latch":
            saw_latch = True
            current = element.d
            continue
        return current, saw_latch
    return current, saw_latch
