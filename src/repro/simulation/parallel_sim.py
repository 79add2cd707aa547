"""Bit-parallel 3-valued simulation over arbitrary-width integer planes.

This is the workhorse behind fault simulation with parallel-pattern single
fault propagation (Waicukauski et al., ITC 1986 — reference [3] of the
paper).  Each signal is held as a pair of Python integers in dual-rail
encoding, one bit per pattern in the batch:

* ``can0`` bit set — the signal may be 0,
* ``can1`` bit set — the signal may be 1,
* both set — the signal is unknown (X),
* both clear — never produced by well-formed operations.

With this encoding AND/OR/NOT/XOR/MUX all reduce to a handful of bitwise
operations, the unknown value propagates pessimistically exactly like the
scalar 4-valued algebra (Z collapses to X on gate inputs), and — because
Python integers are arbitrary precision — a single "word" covers the whole
pattern batch regardless of its size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.netlist.gates import GateType
from repro.logic import Logic
from repro.simulation.model import CircuitModel, NodeKind


@dataclass
class PackedPatterns:
    """A batch of patterns packed into per-node dual-rail integer planes.

    Bit *p* of a plane belongs to pattern *p* of the batch.
    """

    num_patterns: int
    can0: list[int]
    can1: list[int]

    @property
    def full_mask(self) -> int:
        """Mask with one bit set per pattern in the batch."""
        return (1 << self.num_patterns) - 1


def pack_patterns(
    model: CircuitModel,
    patterns: Sequence[dict[int, Logic]],
    default: Logic = Logic.X,
) -> PackedPatterns:
    """Pack per-pattern source assignments into dual-rail planes.

    Args:
        model: Circuit the patterns target.
        patterns: One dict per pattern mapping source node index -> value.
        default: Value for unassigned source nodes.

    Returns:
        The packed representation; gate/constant planes are left as X and
        filled in by :func:`simulate_packed`.
    """
    num_patterns = max(1, len(patterns))
    full = (1 << num_patterns) - 1
    default0, default1 = planes_of(default, full)

    num_nodes = model.num_nodes
    can0 = [0] * num_nodes
    can1 = [0] * num_nodes
    source_kinds = (NodeKind.PI, NodeKind.PPI, NodeKind.RAM_OUT)
    for node in model.nodes:
        if node.kind in source_kinds:
            can0[node.index] = default0
            can1[node.index] = default1

    for p_index, assignment in enumerate(patterns):
        bit = 1 << p_index
        clear = ~bit
        for node_index, value in assignment.items():
            if value is Logic.ONE:
                can0[node_index] &= clear
                can1[node_index] |= bit
            elif value is Logic.ZERO:
                can1[node_index] &= clear
                can0[node_index] |= bit
            else:
                can0[node_index] |= bit
                can1[node_index] |= bit
    return PackedPatterns(num_patterns=num_patterns, can0=can0, can1=can1)


def simulate_packed(model: CircuitModel, packed: PackedPatterns) -> PackedPatterns:
    """Evaluate all gate nodes of the model over a packed pattern batch.

    The source-node planes are taken from ``packed``; gate and constant node
    planes are overwritten in place.  Returns ``packed`` for chaining.
    """
    can0, can1 = packed.can0, packed.can1
    full = packed.full_mask
    for node in model.nodes:
        idx = node.index
        kind = node.kind
        if kind is NodeKind.CONST0:
            can0[idx], can1[idx] = full, 0
        elif kind is NodeKind.CONST1:
            can0[idx], can1[idx] = 0, full
        elif kind is NodeKind.GATE:
            out0, out1 = eval_gate_planes(
                node.gtype,
                [can0[i] for i in node.fanin],
                [can1[i] for i in node.fanin],
                full,
            )
            can0[idx], can1[idx] = out0, out1
    return packed


def eval_gate_planes(
    gtype: GateType, in0: Sequence[int], in1: Sequence[int], full: int
) -> tuple[int, int]:
    """Evaluate one primitive gate over dual-rail integer planes."""
    if gtype is GateType.BUF:
        return in0[0], in1[0]
    if gtype is GateType.NOT:
        return in1[0], in0[0]
    if gtype in (GateType.AND, GateType.NAND):
        out0, out1 = in0[0], in1[0]
        for a0, a1 in zip(in0[1:], in1[1:]):
            out0 |= a0
            out1 &= a1
        return (out1, out0) if gtype is GateType.NAND else (out0, out1)
    if gtype in (GateType.OR, GateType.NOR):
        out0, out1 = in0[0], in1[0]
        for a0, a1 in zip(in0[1:], in1[1:]):
            out0 &= a0
            out1 |= a1
        return (out1, out0) if gtype is GateType.NOR else (out0, out1)
    if gtype in (GateType.XOR, GateType.XNOR):
        out0, out1 = in0[0], in1[0]
        for b0, b1 in zip(in0[1:], in1[1:]):
            out0, out1 = (out0 & b0) | (out1 & b1), (out0 & b1) | (out1 & b0)
        return (out1, out0) if gtype is GateType.XNOR else (out0, out1)
    if gtype is GateType.MUX2:
        s0, s1 = in0[0], in1[0]
        a0, a1 = in0[1], in1[1]
        b0, b1 = in0[2], in1[2]
        return (s0 & a0) | (s1 & b0), (s0 & a1) | (s1 & b1)
    if gtype is GateType.TIE0:
        return full, 0
    if gtype is GateType.TIE1:
        return 0, full
    raise ValueError(f"unsupported packed gate type {gtype!r}")


def unpack_value(packed: PackedPatterns, node_index: int, pattern_index: int) -> Logic:
    """Read back one node's value for one pattern."""
    bit = 1 << pattern_index
    b0 = bool(packed.can0[node_index] & bit)
    b1 = bool(packed.can1[node_index] & bit)
    if b0 and b1:
        return Logic.X
    if b1:
        return Logic.ONE
    if b0:
        return Logic.ZERO
    return Logic.X


def known_equal_mask(packed: PackedPatterns, node_index: int, value: Logic) -> int:
    """Bit mask of patterns where a node has the given known value."""
    known = packed.can0[node_index] ^ packed.can1[node_index]
    if value is Logic.ZERO:
        return known & packed.can0[node_index]
    if value is Logic.ONE:
        return known & packed.can1[node_index]
    return 0


def mask_to_indices(mask: int, offset: int = 0) -> list[int]:
    """Indices of set bits in a detection mask (plus an optional offset).

    Steps from set bit to set bit, so a sparse wide mask costs one step per
    hit, not one per bit below its top hit.
    """
    indices: list[int] = []
    offset -= 1
    while mask:
        low = mask & -mask
        indices.append(offset + low.bit_length())
        mask ^= low
    return indices


def planes_of(value: Logic, full: int) -> tuple[int, int]:
    """The ``(can0, can1)`` planes of ``value`` on every lane of ``full``."""
    if value is Logic.ZERO:
        return full, 0
    if value is Logic.ONE:
        return 0, full
    return full, full
