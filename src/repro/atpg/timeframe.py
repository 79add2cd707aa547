"""Time-frame expansion for sequential (broadside) test generation.

Delay test is a two-vector test; with extra initialization pulses (clock
sequential patterns) it becomes a *k*-vector test.  The ATPG and the fault
simulator both work on a :class:`TimeFrameView`: a purely combinational
circuit built from *k* copies of the base model where

* frame 0 pseudo-primary-inputs are the scan-loaded flip-flop values
  (controllable for scan cells, unknown for non-scan cells),
* the frame *f* copy of a flip-flop output is, when the flip-flop's clock
  domain is pulsed by capture pulse *f*, a buffer of its functional D value
  computed in frame *f-1*; otherwise it aliases the frame *f-1* value
  (the flip-flop holds),
* primary inputs are shared across frames when the tester must hold them,
* the observation points are the frame *k-1* D inputs of the scan flip-flops
  captured by the final pulse, plus the frame *k-1* primary outputs when the
  tester is allowed to strobe them.

The launch condition of a transition fault compares the value of the fault
site in frame *k-2* with frame *k-1*; its detection condition is the
corresponding stuck-at fault injected in frame *k-1* only.  Stuck-at ATPG is
the degenerate single-frame case of the same construction.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.atpg.config import TestSetup
from repro.clocking.domains import ClockDomainMap
from repro.clocking.named_capture import NamedCaptureProcedure
from repro.faults.models import FaultSite, StuckAtFault, TransitionFault
from repro.netlist.gates import GateType
from repro.logic import Logic
from repro.simulation.model import CircuitModel, Node, NodeKind


@dataclass
class TimeFrameView:
    """Expanded combinational view of one capture procedure.

    A view depends on the base model, the procedure, every state element's
    clock domain and three setup fields (pin constraints, ``hold_pis``,
    ``observe_pos``), and carries no setup: one view serves every setup
    that agrees on those (:mod:`repro.atpg.artefacts`).  It keeps only
    its base model's fanin table (``base_fanin``), never the model: a view
    memoised on the model then forms no reference cycle with it, so a
    discarded design is freed at once.
    """

    base_fanin: list[tuple[int, ...]]
    procedure: NamedCaptureProcedure
    model: CircuitModel
    frame_map: list[dict[int, int]]
    controllable: set[int]
    fixed: dict[int, Logic]
    observation: list[int]
    scan_state_node: dict[str, int]
    pi_nodes: dict[tuple[int, str], int]
    observed_flops: list[str]

    # ----------------------------------------------------------------- frames
    @property
    def num_frames(self) -> int:
        return self.procedure.num_frames

    @property
    def launch_frame(self) -> int:
        return self.procedure.launch_frame

    @property
    def capture_frame(self) -> int:
        return self.procedure.capture_frame

    # ----------------------------------------------------------------- faults
    def expanded_stuck_at(self, fault: StuckAtFault, frame: int | None = None) -> StuckAtFault:
        """Map a base-model stuck-at fault into the expanded model."""
        frame = self.capture_frame if frame is None else frame
        site = fault.site
        return StuckAtFault(
            site=FaultSite(node=self.frame_map[frame][site.node], pin=site.pin),
            value=fault.value,
        )

    def launch_value_node(self, site: FaultSite) -> int:
        """Expanded node whose launch-frame value must equal the transition's
        initial value (the driver node for input-pin sites)."""
        base_node = site.node if site.pin is None else self.base_fanin[site.node][site.pin]
        return self.frame_map[self.launch_frame][base_node]

    def transition_requirements(self, fault: TransitionFault) -> tuple[StuckAtFault, list[tuple[int, Logic]]]:
        """Stuck-at fault + additional value objectives for a transition fault.

        Returns the capture-frame stuck-at fault to target with PODEM and the
        list of mandatory (expanded node, value) objectives: the launch-frame
        initial value at the fault site.  (The final-frame value requirement is
        implied by stuck-at activation.)
        """
        stuck = self.expanded_stuck_at(fault.capture_frame_stuck_at)
        launch_node = self.launch_value_node(fault.site)
        requirements = [(launch_node, fault.kind.initial_value)]
        return stuck, requirements

    # ------------------------------------------------------------ assignments
    def pattern_fields(self, assignment: dict[int, Logic]) -> tuple[dict[str, Logic], list[dict[str, Logic]]]:
        """Split a PODEM assignment into scan-load values and per-frame PI vectors."""
        scan_load: dict[str, Logic] = {}
        for flop_name, node in self.scan_state_node.items():
            value = assignment.get(node, Logic.X)
            scan_load[flop_name] = value
        frames: list[dict[str, Logic]] = [dict() for _ in range(self.num_frames)]
        for (frame, net), node in self.pi_nodes.items():
            value = assignment.get(node, Logic.X)
            if frame < 0:
                for frame_values in frames:
                    frame_values[net] = value
            else:
                frames[frame][net] = value
        return scan_load, frames


def build_timeframe_view(
    base_model: CircuitModel,
    domain_map: ClockDomainMap,
    procedure: NamedCaptureProcedure,
    setup: TestSetup,
) -> TimeFrameView:
    """Construct the expanded combinational model for one capture procedure."""
    nodes: list[Node] = []
    node_of_net: dict[str, int] = {}
    fixed: dict[int, Logic] = {}
    controllable: set[int] = set()
    pi_nodes: dict[tuple[int, str], int] = {}
    scan_state_node: dict[str, int] = {}

    def add_node(kind: NodeKind, net: str, gtype: GateType | None, fanin: tuple[int, ...],
                 instance: str | None) -> int:
        level = max((nodes[i].level for i in fanin), default=-1) + 1
        index = len(nodes)
        nodes.append(Node(index=index, kind=kind, net=net, gtype=gtype, fanin=fanin,
                          level=level, instance=instance))
        node_of_net[net] = index
        return index

    constraints = setup.effective_pin_constraints()
    num_frames = procedure.num_frames
    frame_map: list[dict[int, int]] = [dict() for _ in range(num_frames)]

    # Pre-compute which state element owns each base PPI node.
    element_of_q: dict[int, object] = {}
    for element in base_model.state_elements:
        element_of_q[element.q_node] = element

    # ------------------------------------------------------------- frame 0
    for base in base_model.nodes:
        if base.kind is NodeKind.PI:
            idx = add_node(NodeKind.PI, f"tf0/{base.net}", None, (), base.instance)
            frame_map[0][base.index] = idx
            if base.net in constraints:
                fixed[idx] = constraints[base.net]
            else:
                controllable.add(idx)
                pi_nodes[(-1 if setup.hold_pis else 0, base.net)] = idx
        elif base.kind is NodeKind.PPI:
            idx = add_node(NodeKind.PPI, f"tf0/{base.net}", None, (), base.instance)
            frame_map[0][base.index] = idx
            element = element_of_q.get(base.index)
            if element is not None and element.flop.is_scan:
                controllable.add(idx)
                scan_state_node[element.name] = idx
            elif element is not None and element.flop.init is not None:
                fixed[idx] = Logic.from_int(element.flop.init)
            else:
                fixed[idx] = Logic.X
        elif base.kind is NodeKind.RAM_OUT:
            idx = add_node(NodeKind.RAM_OUT, f"tf0/{base.net}", None, (), base.instance)
            frame_map[0][base.index] = idx
            fixed[idx] = Logic.X
        elif base.kind in (NodeKind.CONST0, NodeKind.CONST1):
            idx = add_node(base.kind, f"tf0/{base.net}", base.gtype, (), base.instance)
            frame_map[0][base.index] = idx
        else:  # GATE
            fanin = tuple(frame_map[0][i] for i in base.fanin)
            idx = add_node(NodeKind.GATE, f"tf0/{base.net}", base.gtype, fanin, base.instance)
            frame_map[0][base.index] = idx

    # ------------------------------------------------------ frames 1..k-1
    for frame in range(1, num_frames):
        pulse = procedure.pulses[frame - 1]
        for base in base_model.nodes:
            prev_idx = frame_map[frame - 1][base.index]
            if base.kind is NodeKind.PI:
                if setup.hold_pis or base.net in constraints:
                    frame_map[frame][base.index] = prev_idx
                else:
                    idx = add_node(NodeKind.PI, f"tf{frame}/{base.net}", None, (), base.instance)
                    frame_map[frame][base.index] = idx
                    controllable.add(idx)
                    pi_nodes[(frame, base.net)] = idx
            elif base.kind is NodeKind.PPI:
                element = element_of_q.get(base.index)
                captured = False
                if element is not None:
                    domain = domain_map.domain_of(element.name)
                    captured = domain is not None and domain in pulse.domains
                if captured:
                    if element.d_node is not None:
                        source = frame_map[frame - 1][element.d_node]
                        idx = add_node(
                            NodeKind.GATE,
                            f"tf{frame}/{base.net}",
                            GateType.BUF,
                            (source,),
                            f"tf{frame}_{element.name}",
                        )
                    else:
                        idx = add_node(NodeKind.PPI, f"tf{frame}/{base.net}", None, (),
                                       base.instance)
                        fixed[idx] = Logic.X
                    frame_map[frame][base.index] = idx
                else:
                    frame_map[frame][base.index] = prev_idx
            elif base.kind in (NodeKind.RAM_OUT, NodeKind.CONST0, NodeKind.CONST1):
                frame_map[frame][base.index] = prev_idx
            else:  # GATE
                fanin = tuple(frame_map[frame][i] for i in base.fanin)
                idx = add_node(NodeKind.GATE, f"tf{frame}/{base.net}", base.gtype, fanin,
                               base.instance)
                frame_map[frame][base.index] = idx

    # ------------------------------------------------------------ observation
    last_pulse = procedure.pulses[-1]
    observation: list[int] = []
    observed_flops: list[str] = []
    final = num_frames - 1
    for element in base_model.state_elements:
        if not element.flop.is_scan or element.d_node is None:
            continue
        domain = domain_map.domain_of(element.name)
        if domain is None or domain not in last_pulse.domains:
            continue
        observation.append(frame_map[final][element.d_node])
        observed_flops.append(element.name)
    po_obs: list[tuple[str, int]] = []
    if setup.observe_pos:
        for net, base_idx in base_model.po_nodes:
            expanded = frame_map[final][base_idx]
            observation.append(expanded)
            po_obs.append((net, expanded))
    observation = sorted(set(observation))

    # ------------------------------------------------------------- fanout map
    fanout_map: dict[int, list[int]] = defaultdict(list)
    for node in nodes:
        for src in node.fanin:
            fanout_map[src].append(node.index)
    fanout = [tuple(sorted(fanout_map.get(i, ()))) for i in range(len(nodes))]
    max_level = max((n.level for n in nodes), default=0)

    expanded = CircuitModel(
        name=f"{base_model.name}@{procedure.name}",
        nodes=nodes,
        node_of_net=node_of_net,
        pi_nodes=sorted(controllable),
        ppi_nodes=[],
        ram_out_nodes=[],
        po_nodes=po_obs,
        state_elements=[],
        fanout=fanout,
        max_level=max_level,
    )

    return TimeFrameView(
        base_fanin=[node.fanin for node in base_model.nodes],
        procedure=procedure,
        model=expanded,
        frame_map=frame_map,
        controllable=controllable,
        fixed=fixed,
        observation=observation,
        scan_state_node=scan_state_node,
        pi_nodes=pi_nodes,
        observed_flops=observed_flops,
    )
