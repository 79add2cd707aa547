"""Multi-valued logic algebras used throughout the library.

Two algebras are provided:

* :class:`Logic` — the 4-valued simulation algebra ``{0, 1, X, Z}`` used by the
  logic, timing and fault simulators.
* :class:`DValue` — the 5-valued D-calculus ``{0, 1, X, D, D'}`` used by the
  PODEM test generator, where ``D`` means *good machine 1 / faulty machine 0*
  and ``D'`` the opposite.

Both are small enums with explicit operator tables; speed-critical bit-parallel
simulation uses the encoded two-plane representation in
:mod:`repro.simulation.parallel_sim` instead.
"""

from __future__ import annotations

from enum import Enum


class Logic(Enum):
    """Four-valued logic: 0, 1, unknown (X) and high-impedance (Z)."""

    ZERO = 0
    ONE = 1
    X = 2
    Z = 3

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Logic.{self.name}"

    def __str__(self) -> str:
        return {Logic.ZERO: "0", Logic.ONE: "1", Logic.X: "X", Logic.Z: "Z"}[self]

    @classmethod
    def from_char(cls, ch: str) -> "Logic":
        """Parse a single character ('0', '1', 'x'/'X', 'z'/'Z') into a value."""
        table = {"0": cls.ZERO, "1": cls.ONE, "x": cls.X, "X": cls.X, "z": cls.Z, "Z": cls.Z}
        try:
            return table[ch]
        except KeyError as exc:
            raise ValueError(f"not a logic character: {ch!r}") from exc

    @classmethod
    def from_int(cls, value: int) -> "Logic":
        if value not in (0, 1):
            raise ValueError(f"only 0 or 1 convert to Logic, got {value}")
        return cls.ONE if value else cls.ZERO

    def invert(self) -> "Logic":
        """Logical complement; X and Z invert to X."""
        if self is Logic.ZERO:
            return Logic.ONE
        if self is Logic.ONE:
            return Logic.ZERO
        return Logic.X

    @property
    def is_known(self) -> bool:
        """True for 0 or 1."""
        return self in (Logic.ZERO, Logic.ONE)

    def to_int(self) -> int:
        """Return 0 or 1; raises for X/Z."""
        if self is Logic.ZERO:
            return 0
        if self is Logic.ONE:
            return 1
        raise ValueError(f"cannot convert {self} to int")

    def __and__(self, other: "Logic") -> "Logic":
        a, b = _xz_to_x(self), _xz_to_x(other)
        if Logic.ZERO in (a, b):
            return Logic.ZERO
        if a is Logic.ONE and b is Logic.ONE:
            return Logic.ONE
        return Logic.X

    def __or__(self, other: "Logic") -> "Logic":
        a, b = _xz_to_x(self), _xz_to_x(other)
        if Logic.ONE in (a, b):
            return Logic.ONE
        if a is Logic.ZERO and b is Logic.ZERO:
            return Logic.ZERO
        return Logic.X

    def __xor__(self, other: "Logic") -> "Logic":
        a, b = _xz_to_x(self), _xz_to_x(other)
        if not (a.is_known and b.is_known):
            return Logic.X
        return Logic.ONE if a is not b else Logic.ZERO

    def __invert__(self) -> "Logic":
        return self.invert()


def _xz_to_x(v: Logic) -> Logic:
    return Logic.X if v is Logic.Z else v


class DValue(Enum):
    """Five-valued D-calculus for deterministic test generation.

    ``D`` encodes good-machine 1 / faulty-machine 0; ``DBAR`` the reverse.
    """

    ZERO = "0"
    ONE = "1"
    X = "X"
    D = "D"
    DBAR = "D'"

    def __str__(self) -> str:
        return self.value

    @classmethod
    def from_pair(cls, good: Logic, faulty: Logic) -> "DValue":
        """Build a D-value from (good, faulty) 3-valued pair."""
        if not good.is_known or not faulty.is_known:
            return cls.X
        if good is Logic.ONE and faulty is Logic.ONE:
            return cls.ONE
        if good is Logic.ZERO and faulty is Logic.ZERO:
            return cls.ZERO
        if good is Logic.ONE and faulty is Logic.ZERO:
            return cls.D
        return cls.DBAR

    @property
    def good(self) -> Logic:
        """Good-machine component."""
        return {
            DValue.ZERO: Logic.ZERO,
            DValue.ONE: Logic.ONE,
            DValue.X: Logic.X,
            DValue.D: Logic.ONE,
            DValue.DBAR: Logic.ZERO,
        }[self]

    @property
    def faulty(self) -> Logic:
        """Faulty-machine component."""
        return {
            DValue.ZERO: Logic.ZERO,
            DValue.ONE: Logic.ONE,
            DValue.X: Logic.X,
            DValue.D: Logic.ZERO,
            DValue.DBAR: Logic.ONE,
        }[self]

    @property
    def is_fault_effect(self) -> bool:
        """True for D or D'."""
        return self in (DValue.D, DValue.DBAR)

    @property
    def is_known(self) -> bool:
        return self is not DValue.X

    def invert(self) -> "DValue":
        return DValue.from_pair(self.good.invert(), self.faulty.invert())

    @classmethod
    def from_logic(cls, value: Logic) -> "DValue":
        """Lift a fault-free Logic value into the D-calculus."""
        if value is Logic.ZERO:
            return cls.ZERO
        if value is Logic.ONE:
            return cls.ONE
        return cls.X


def dvalue_and(a: DValue, b: DValue) -> DValue:
    return DValue.from_pair(a.good & b.good, a.faulty & b.faulty)


def dvalue_or(a: DValue, b: DValue) -> DValue:
    return DValue.from_pair(a.good | b.good, a.faulty | b.faulty)


def dvalue_xor(a: DValue, b: DValue) -> DValue:
    return DValue.from_pair(a.good ^ b.good, a.faulty ^ b.faulty)


def dvalue_not(a: DValue) -> DValue:
    return a.invert()
