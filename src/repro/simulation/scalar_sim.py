"""Scalar (one pattern at a time) 4-valued simulation of a circuit model.

The scalar simulator is the reference implementation: simple, obviously
correct, used by unit tests and by the property-based tests as the oracle the
bit-parallel simulator must agree with.
"""

from __future__ import annotations

from typing import Mapping

from repro.netlist.gates import evaluate_gate
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind


def simulate(
    model: CircuitModel,
    assignments: Mapping[int, Logic],
    default: Logic = Logic.X,
) -> list[Logic]:
    """Evaluate every node of the model for one input assignment.

    Args:
        model: The levelized circuit.
        assignments: Values for source nodes (PI/PPI/RAM_OUT), keyed by node
            index.  Missing sources take ``default``.
        default: Value used for unassigned source nodes.

    Returns:
        A list of node values indexed by node id.
    """
    values: list[Logic] = [Logic.X] * model.num_nodes
    for node in model.nodes:
        if node.kind is NodeKind.GATE:
            inputs = [values[i] for i in node.fanin]
            values[node.index] = evaluate_gate(node.gtype, inputs)
        elif node.kind is NodeKind.CONST0:
            values[node.index] = Logic.ZERO
        elif node.kind is NodeKind.CONST1:
            values[node.index] = Logic.ONE
        else:  # PI / PPI / RAM_OUT
            values[node.index] = assignments.get(node.index, default)
    return values


def simulate_by_net(
    model: CircuitModel,
    net_assignments: Mapping[str, Logic | int | str],
    default: Logic = Logic.X,
) -> dict[str, Logic]:
    """Convenience wrapper keyed by net names instead of node indices.

    Assignment values may be :class:`Logic`, ``0``/``1`` ints or single
    characters (``"0"``, ``"1"``, ``"X"``).
    """
    assignments: dict[int, Logic] = {}
    for net, value in net_assignments.items():
        idx = model.node_of_net[net]
        assignments[idx] = _coerce(value)
    values = simulate(model, assignments, default=default)
    return {node.net: values[node.index] for node in model.nodes}


def _coerce(value: Logic | int | str) -> Logic:
    if isinstance(value, Logic):
        return value
    if isinstance(value, str):
        return Logic.from_char(value)
    return Logic.from_int(value)
