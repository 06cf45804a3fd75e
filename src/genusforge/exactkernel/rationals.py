"""Rational phases modulo 1 and modulo 2, as views of integer encodings.

A quadratic form value lives in Q/2Z and a bilinear form value or a twist
in Q/Z.  The library keeps each as an integer numerator (a Gram matrix
over its level, twists over the order of a term table) and writes JSON
and `repr` from the integers with `fraction_str`.  `PhaseMod2` and
`PhaseMod1` are built only by the views `FiniteQuadraticSpace.q_gen`,
`b_matrix` and `ModularData.twists`, for callers that want exact values.
They share one class body and differ only in the modulus m: each keeps a
`fractions.Fraction` representative normalized into [0, m), so a value's
residue ring is part of its type.  A phase compares equal only to phases
of its own type and prints as its representative; it has no arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Integral
from typing import Union

from ..errors import ValidationError

RationalLike = Union[int, str, Fraction]


def as_fraction(value: RationalLike) -> Fraction:
    # Fraction("2/3") parses the CLI/JSON spelling directly.
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Integral) and not isinstance(value, bool):
        return Fraction(int(value))
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValidationError(f"not a rational value: {value!r}")


def fraction_str(num: int, den: int) -> str:
    """num/den for den > 0 in lowest terms, spelled as `str(Fraction(num, den))`."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


class _Phase:
    """A rational residue modulo `modulus`, normalized into [0, modulus)."""

    __slots__ = ("value",)
    modulus = 1

    def __init__(self, value: RationalLike):
        self.value = as_fraction(value) % self.modulus

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.value))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self.value)!r})"

    def __str__(self) -> str:
        return str(self.value)


class PhaseMod1(_Phase):
    """A rational residue modulo 1, normalized into [0, 1)."""

    __slots__ = ()


class PhaseMod2(_Phase):
    """A rational residue modulo 2, normalized into [0, 2)."""

    __slots__ = ()
    modulus = 2
