"""Code pairs (C, D) and the per-condition framing report."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .binary import (
    BinaryCode,
    contains_allones,
    is_even,
    weights_divisible_by_8,
)


@dataclass(frozen=True)
class FramedPair:
    c_code: BinaryCode
    d_code: BinaryCode

    def __post_init__(self):
        if self.c_code.length != self.d_code.length:
            raise ValidationError("paired codes must have the same length")

    @property
    def length(self) -> int:
        return self.c_code.length


@dataclass(frozen=True)
class FramedReport:
    """One boolean per condition; conditions is a name -> pass mapping."""

    conditions: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(v for _, v in self.conditions)

    def as_dict(self) -> dict:
        return dict(self.conditions)


def check_framed_conditions(pair: FramedPair, self_dual: bool = False) -> FramedReport:
    """Check D inside the dual of C, C even, weights of D in 8Z.

    With self_dual also demand 16 | length, D equal to the dual of C,
    and the all-ones word in D.  D lies in the dual of C when every pair
    of basis words meets in an even number of places, and then equals it
    when dim C + dim D = length; the dual itself is never built.
    """
    c, d = pair.c_code, pair.d_code
    orthogonal = all((a & b).bit_count() % 2 == 0 for a in c.basis for b in d.basis)
    conds = [
        ("d_subset_c_dual", orthogonal),
        ("c_even", is_even(c)),
        ("d_weights_multiple_of_8", weights_divisible_by_8(d)),
    ]
    if self_dual:
        conds += [
            ("length_multiple_of_16", pair.length % 16 == 0),
            ("d_equals_c_dual",
             orthogonal and len(c.basis) + len(d.basis) == pair.length),
            ("allones_in_d", contains_allones(d)),
        ]
    return FramedReport(tuple(conds))
