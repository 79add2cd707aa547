"""SCOAP-style testability measures used to guide PODEM's backtrace.

Controllability values (CC0/CC1) estimate how many primary-input assignments
it takes to set a node to 0/1; observability (CO) estimates how far a node is
from an observation point.  The numbers only have to be *relatively* right —
they steer decisions, they never decide testability — so the implementation
is the classic Goldstein formulation with saturation, extended with two
notions the delay-test flow needs:

* nodes that a test setup fixes to a constant are free to control towards the
  constant and impossible to control the other way;
* nodes that the setup forces to X (non-scan state, RAM outputs) are
  impossible to control either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.netlist.gates import GateType
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind

#: Saturation value: effectively "uncontrollable"/"unobservable".
INFINITE_COST = 10**6


@dataclass
class TestabilityMeasures:
    """Per-node controllability/observability estimates."""

    cc0: list[int]
    cc1: list[int]
    observability: list[int]

    def controllability(self, node: int, value: Logic) -> int:
        if value is Logic.ZERO:
            return self.cc0[node]
        if value is Logic.ONE:
            return self.cc1[node]
        return 0

    def hardest_input(self, inputs: Sequence[int], value: Logic) -> int | None:
        """Input with the highest (finite or not) cost to reach ``value``."""
        if not inputs:
            return None
        return max(inputs, key=lambda idx: self.controllability(idx, value))

    def easiest_input(self, inputs: Sequence[int], value: Logic) -> int | None:
        if not inputs:
            return None
        return min(inputs, key=lambda idx: self.controllability(idx, value))


def compute_testability(
    model: CircuitModel,
    controllable: set[int] | None = None,
    fixed: Mapping[int, Logic] | None = None,
    observation: Sequence[int] | None = None,
) -> TestabilityMeasures:
    """Compute SCOAP controllability and observability for a model.

    Args:
        model: Circuit (base or time-frame expanded).
        controllable: Node indices the ATPG may assign; defaults to all source
            nodes (PI/PPI/RAM_OUT).
        fixed: Nodes tied to a constant (or to X) by the test setup.
        observation: Observation points; defaults to the model's POs plus
            flip-flop D inputs.

    Returns:
        The per-node measures (saturated at :data:`INFINITE_COST`).
    """
    fixed = dict(fixed or {})
    if controllable is None:
        controllable = {
            n.index
            for n in model.nodes
            if n.kind in (NodeKind.PI, NodeKind.PPI, NodeKind.RAM_OUT) and n.index not in fixed
        }
    if observation is None:
        observation = model.observation_nodes()

    cc0 = [INFINITE_COST] * model.num_nodes
    cc1 = [INFINITE_COST] * model.num_nodes

    for node in model.nodes:
        idx = node.index
        if node.kind is NodeKind.CONST0:
            cc0[idx], cc1[idx] = 0, INFINITE_COST
        elif node.kind is NodeKind.CONST1:
            cc0[idx], cc1[idx] = INFINITE_COST, 0
        elif idx in fixed:
            value = fixed[idx]
            if value is Logic.ZERO:
                cc0[idx], cc1[idx] = 0, INFINITE_COST
            elif value is Logic.ONE:
                cc0[idx], cc1[idx] = INFINITE_COST, 0
            else:  # forced unknown
                cc0[idx], cc1[idx] = INFINITE_COST, INFINITE_COST
        elif idx in controllable:
            cc0[idx], cc1[idx] = 1, 1
        elif node.kind is not NodeKind.GATE:
            # Unassignable source (e.g. non-scan state not fixed explicitly).
            cc0[idx], cc1[idx] = INFINITE_COST, INFINITE_COST
        else:
            zero, one = _gate_controllability(node.gtype, node.fanin, cc0, cc1)
            cc0[idx], cc1[idx] = min(zero, INFINITE_COST), min(one, INFINITE_COST)

    observability = _compute_observability(model, cc0, cc1, observation)
    return TestabilityMeasures(cc0=cc0, cc1=cc1, observability=observability)


def _sum(costs: Sequence[int]) -> int:
    return min(INFINITE_COST, sum(min(c, INFINITE_COST) for c in costs))


def _gate_controllability(
    gtype: GateType | None, fanin: tuple[int, ...], cc0: list[int], cc1: list[int]
) -> tuple[int, int]:
    if gtype in (GateType.BUF,):
        return cc0[fanin[0]] + 1, cc1[fanin[0]] + 1
    if gtype is GateType.NOT:
        return cc1[fanin[0]] + 1, cc0[fanin[0]] + 1
    if gtype in (GateType.AND, GateType.NAND):
        zero = min(cc0[i] for i in fanin) + 1
        one = _sum([cc1[i] for i in fanin]) + 1
        if gtype is GateType.NAND:
            zero, one = one, zero
        return zero, one
    if gtype in (GateType.OR, GateType.NOR):
        one = min(cc1[i] for i in fanin) + 1
        zero = _sum([cc0[i] for i in fanin]) + 1
        if gtype is GateType.NOR:
            zero, one = one, zero
        return zero, one
    if gtype in (GateType.XOR, GateType.XNOR):
        # Two-input approximation applied pairwise.
        zero, one = cc0[fanin[0]], cc1[fanin[0]]
        for idx in fanin[1:]:
            new_zero = min(zero + cc0[idx], one + cc1[idx]) + 1
            new_one = min(zero + cc1[idx], one + cc0[idx]) + 1
            zero, one = min(new_zero, INFINITE_COST), min(new_one, INFINITE_COST)
        if gtype is GateType.XNOR:
            zero, one = one, zero
        return zero, one
    if gtype is GateType.MUX2:
        sel, a, b = fanin
        zero = min(cc0[sel] + cc0[a], cc1[sel] + cc0[b]) + 1
        one = min(cc0[sel] + cc1[a], cc1[sel] + cc1[b]) + 1
        return min(zero, INFINITE_COST), min(one, INFINITE_COST)
    return INFINITE_COST, INFINITE_COST


def _compute_observability(
    model: CircuitModel, cc0: list[int], cc1: list[int], observation: Sequence[int]
) -> list[int]:
    observability = [INFINITE_COST] * model.num_nodes
    for idx in observation:
        observability[idx] = 0
    # Walk nodes from outputs towards inputs (reverse topological order).
    for node in sorted(model.nodes, key=lambda n: -n.level):
        own = observability[node.index]
        if node.kind is not NodeKind.GATE or own >= INFINITE_COST:
            continue
        gtype = node.gtype
        for pin, src in enumerate(node.fanin):
            cost = own + 1
            if gtype in (GateType.AND, GateType.NAND):
                cost += _sum([cc1[i] for p, i in enumerate(node.fanin) if p != pin])
            elif gtype in (GateType.OR, GateType.NOR):
                cost += _sum([cc0[i] for p, i in enumerate(node.fanin) if p != pin])
            elif gtype in (GateType.XOR, GateType.XNOR):
                cost += _sum(
                    [min(cc0[i], cc1[i]) for p, i in enumerate(node.fanin) if p != pin]
                )
            elif gtype is GateType.MUX2:
                if pin == 0:
                    cost += min(cc0[node.fanin[1]] + cc1[node.fanin[2]],
                                cc1[node.fanin[1]] + cc0[node.fanin[2]])
                else:
                    select_value = cc0 if pin == 1 else cc1
                    cost += select_value[node.fanin[0]]
            observability[src] = min(observability[src], min(cost, INFINITE_COST))
    return observability
