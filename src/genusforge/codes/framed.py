"""Code pairs (C, D) and the per-condition framing report."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ValidationError
from .binary import (
    BinaryCode,
    contains_allones,
    dual_code,
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
    and the all-ones word in D.  Both duality conditions are read off the
    dual of C, which is built once and kept on C: D equals it when the
    canonical bases agree, and lies in it when every basis row of D
    reduces to zero modulo it.
    """
    c, d = pair.c_code, pair.d_code
    dual = dual_code(c)
    equal = d == dual
    orthogonal = equal or all(b in dual for b in d.basis)
    conds = [
        ("d_subset_c_dual", orthogonal),
        ("c_even", is_even(c)),
        ("d_weights_multiple_of_8", weights_divisible_by_8(d)),
    ]
    if self_dual:
        conds += [
            ("length_multiple_of_16", pair.length % 16 == 0),
            ("d_equals_c_dual", equal),
            ("allones_in_d", contains_allones(d)),
        ]
    return FramedReport(tuple(conds))
