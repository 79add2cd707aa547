"""Primitive gate types and their evaluation semantics.

The cell library is intentionally small — the same primitive set used by
classic structural-test literature (and by the CPF schematic in Figure 3 of
the paper): AND/NAND/OR/NOR/XOR/XNOR/NOT/BUF, a 2:1 mux, and constant ties.
Everything else in the library (clock-gating cells, scan cells, the CPF
itself) is composed from these primitives so that simulators, fault models
and ATPG only ever have to reason about this set.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from repro.logic import Logic


class GateType(str, Enum):
    """Primitive combinational cell types."""

    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    MUX2 = "MUX2"  # inputs: (sel, a, b) -> a if sel == 0 else b
    TIE0 = "TIE0"
    TIE1 = "TIE1"

    @property
    def is_inverting(self) -> bool:
        """True for cells whose output is the complement of the controlled value."""
        return self in _INVERTING

    @property
    def controlling_value(self) -> Logic | None:
        """The input value that alone determines the output (None if no such value)."""
        return _CONTROLLING.get(self)

    @property
    def min_inputs(self) -> int:
        return _MIN_INPUTS[self]

    @property
    def max_inputs(self) -> int | None:
        """Maximum number of inputs (None means unbounded)."""
        return _MAX_INPUTS[self]


_INVERTING = {GateType.NAND, GateType.NOR, GateType.NOT, GateType.XNOR}

_CONTROLLING = {
    GateType.AND: Logic.ZERO,
    GateType.NAND: Logic.ZERO,
    GateType.OR: Logic.ONE,
    GateType.NOR: Logic.ONE,
}

_MIN_INPUTS = {
    GateType.AND: 2,
    GateType.NAND: 2,
    GateType.OR: 2,
    GateType.NOR: 2,
    GateType.XOR: 2,
    GateType.XNOR: 2,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.MUX2: 3,
    GateType.TIE0: 0,
    GateType.TIE1: 0,
}

_MAX_INPUTS: dict[GateType, int | None] = {
    GateType.AND: None,
    GateType.NAND: None,
    GateType.OR: None,
    GateType.NOR: None,
    GateType.XOR: None,
    GateType.XNOR: None,
    GateType.NOT: 1,
    GateType.BUF: 1,
    GateType.MUX2: 3,
    GateType.TIE0: 0,
    GateType.TIE1: 0,
}


def evaluate_gate(gtype: GateType, inputs: Sequence[Logic]) -> Logic:
    """Evaluate a primitive gate over 4-valued logic.

    ``Z`` inputs are treated as ``X`` (a floating net driving a CMOS gate input
    has an unknown logic interpretation).

    Args:
        gtype: The primitive cell type.
        inputs: Input values in pin order.

    Returns:
        The 4-valued output value.

    Raises:
        ValueError: If the number of inputs is not legal for the cell type.
    """
    _check_arity(gtype, len(inputs))
    vals = [Logic.X if v is Logic.Z else v for v in inputs]

    if gtype is GateType.TIE0:
        return Logic.ZERO
    if gtype is GateType.TIE1:
        return Logic.ONE
    if gtype is GateType.BUF:
        return vals[0]
    if gtype is GateType.NOT:
        return vals[0].invert()
    if gtype in (GateType.AND, GateType.NAND):
        out = _and_reduce(vals)
        return out.invert() if gtype is GateType.NAND else out
    if gtype in (GateType.OR, GateType.NOR):
        out = _or_reduce(vals)
        return out.invert() if gtype is GateType.NOR else out
    if gtype in (GateType.XOR, GateType.XNOR):
        out = _xor_reduce(vals)
        return out.invert() if gtype is GateType.XNOR else out
    if gtype is GateType.MUX2:
        sel, a, b = vals
        if sel is Logic.ZERO:
            return a
        if sel is Logic.ONE:
            return b
        # Unknown select: output known only if both data inputs agree.
        if a is b and a in (Logic.ZERO, Logic.ONE):
            return a
        return Logic.X
    raise ValueError(f"unsupported gate type: {gtype!r}")


def _check_arity(gtype: GateType, n: int) -> None:
    lo = gtype.min_inputs
    hi = gtype.max_inputs
    if n < lo or (hi is not None and n > hi):
        bound = f"exactly {lo}" if hi == lo else f"between {lo} and {hi or 'inf'}"
        raise ValueError(f"{gtype.value} gate requires {bound} inputs, got {n}")


def _and_reduce(vals: Sequence[Logic]) -> Logic:
    if any(v is Logic.ZERO for v in vals):
        return Logic.ZERO
    if all(v is Logic.ONE for v in vals):
        return Logic.ONE
    return Logic.X


def _or_reduce(vals: Sequence[Logic]) -> Logic:
    if any(v is Logic.ONE for v in vals):
        return Logic.ONE
    if all(v is Logic.ZERO for v in vals):
        return Logic.ZERO
    return Logic.X


def _xor_reduce(vals: Sequence[Logic]) -> Logic:
    if any(v is Logic.X for v in vals):
        return Logic.X
    parity = sum(1 for v in vals if v is Logic.ONE) % 2
    return Logic.ONE if parity else Logic.ZERO
