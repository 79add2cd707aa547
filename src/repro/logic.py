"""The 4-valued logic algebra used throughout the library.

:class:`Logic` is ``{0, 1, X, Z}``, the value set of the scalar, timing and
sequential simulators and of patterns and fail logs.  It is a small enum
with explicit operator tables; speed-critical bit-parallel simulation uses
the encoded two-plane representation in :mod:`repro.simulation.parallel_sim`
instead, and PODEM keeps its good and faulty values as ints.
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

