"""Rational phases modulo 1 and modulo 2.

Quadratic form values live in Q/2Z, bilinear form values in Q/Z.  Both are
kept as `fractions.Fraction` representatives normalized into [0, 2) and
[0, 1).  The wrapper classes exist so a value's residue ring is part of its
type; arithmetic stays inside the ring and normalizes eagerly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from ..errors import ValidationError

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    # Fraction("2/3") parses the CLI/JSON spelling directly.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"not a rational value: {value!r}")


class PhaseMod1:
    """A rational residue modulo 1, normalized into [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, value: RationalLike):
        self.value = as_fraction(value) % 1

    def __add__(self, other: "PhaseMod1") -> "PhaseMod1":
        return PhaseMod1(self.value + other.value)

    def __sub__(self, other: "PhaseMod1") -> "PhaseMod1":
        return PhaseMod1(self.value - other.value)

    def __neg__(self) -> "PhaseMod1":
        return PhaseMod1(-self.value)

    def __mul__(self, n: int) -> "PhaseMod1":
        return PhaseMod1(self.value * n)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PhaseMod1):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == Fraction(other) % 1
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PhaseMod1", self.value))

    def __repr__(self) -> str:
        return f"PhaseMod1({str(self.value)!r})"

    def __str__(self) -> str:
        return str(self.value)


class PhaseMod2:
    """A rational residue modulo 2, normalized into [0, 2)."""

    __slots__ = ("value",)

    def __init__(self, value: RationalLike):
        self.value = as_fraction(value) % 2

    def __add__(self, other: "PhaseMod2") -> "PhaseMod2":
        return PhaseMod2(self.value + other.value)

    def __sub__(self, other: "PhaseMod2") -> "PhaseMod2":
        return PhaseMod2(self.value - other.value)

    def __neg__(self) -> "PhaseMod2":
        return PhaseMod2(-self.value)

    def __mul__(self, n: int) -> "PhaseMod2":
        return PhaseMod2(self.value * n)

    __rmul__ = __mul__

    def mod1(self) -> PhaseMod1:
        """Reduce Q/2Z -> Q/Z."""
        return PhaseMod1(self.value)

    def half(self) -> PhaseMod1:
        """Divide by 2 along Q/2Z -> Q/Z; well defined on residues."""
        return PhaseMod1(self.value / 2)

    def is_zero(self) -> bool:
        return self.value == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PhaseMod2):
            return self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == Fraction(other) % 2
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("PhaseMod2", self.value))

    def __repr__(self) -> str:
        return f"PhaseMod2({str(self.value)!r})"

    def __str__(self) -> str:
        return str(self.value)
