"""Central-charge compatibility and extension bookkeeping.

The anomaly test compares the twist-weighted dimension sum against
exp(2 pi i c/8) sqrt(D) without ever taking a square root: square both
sides exactly, then separate the remaining sign with a certified
interval, the same scheme used for the signature of a quadratic space.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from ..errors import InternalError, LimitError, ValidationError
from ..exactkernel import (
    CyclotomicNumber,
    cyclo_approx,
    reduce_int_counts,
    root_of_unity,
)
from ..exactkernel.rationals import RationalLike, as_fraction
from ..quadspace import (
    FiniteQuadraticSpace,
    Subgroup,
    isotropic_subgroups,
    quotient_space,
)
from .data import ModularData


def _twisted_dimension_sum(m: ModularData) -> CyclotomicNumber:
    # sum_j theta_j d_j^2
    if m.exponents is not None:
        order, exps, tau = m.exponents
        e = (tau + 2 * exps[0]) % order
        counts = np.bincount(e, minlength=order)
        coeffs = reduce_int_counts(order, counts)
        return CyclotomicNumber(order, [Fraction(c) for c in coeffs])
    acc = CyclotomicNumber.zero()
    for j in range(m.n):
        d = m.dims[j]
        acc = acc + root_of_unity(m.twists[j]) * d * d
    return acc


def voa_milgram_check(m: ModularData, c: RationalLike, bits: int = 128) -> bool:
    """Whether sum_j theta_j d_j^2 equals exp(2 pi i c/8) sqrt(D)."""
    c = as_fraction(c)
    g = _twisted_dimension_sum(m)
    d = m.discriminant
    if g * g != root_of_unity(c / 4) * CyclotomicNumber.from_rational(d):
        return False
    aligned = g * root_of_unity(-c / 8)
    box = cyclo_approx(aligned, bits=bits)
    if box.strictly_positive_real():
        return True
    if box.strictly_negative_real():
        return False
    raise InternalError("certified interval failed to separate the two roots")


@dataclass(frozen=True)
class ExtensionReport:
    """One isotropic subgroup C and the category C-perp/C it extends to."""

    subgroup: Subgroup
    quotient: FiniteQuadraticSpace
    multiplicity: int = 1
    exists_and_unique: bool = True


def simple_current_extensions(s: FiniteQuadraticSpace,
                              cap: int = 4096) -> list[ExtensionReport]:
    """One report per isotropic subgroup; all summands enter once."""
    reports = []
    for c in isotropic_subgroups(s, cap=cap):
        reports.append(ExtensionReport(subgroup=c, quotient=quotient_space(s, c)))
    return reports


@dataclass(frozen=True)
class VoaGenusSymbol:
    data: ModularData
    central_charge: Fraction = field(default=Fraction(0))

    def __post_init__(self):
        object.__setattr__(self, "central_charge",
                           as_fraction(self.central_charge))
        if not voa_milgram_check(self.data, self.central_charge):
            raise ValidationError(
                "central charge is incompatible with the modular data "
                "(twisted dimension sum mismatch)")


def _invariant_key(m: ModularData, i: int):
    # twists only: dims are compared exactly through row 0 of s_tilde,
    # whose equality test is representation independent
    return m.twists[i].value


def voa_genus_equal(g1: VoaGenusSymbol, g2: VoaGenusSymbol,
                    cap: int = 16) -> bool:
    """Equal central charge and label bijection fixing 0 matching the data."""
    if g1.central_charge != g2.central_charge:
        return False
    m1, m2 = g1.data, g2.data
    n = m1.n
    if n != m2.n:
        return False
    if n > cap:
        raise LimitError(f"label set of size {n} exceeds cap {cap}")
    if _invariant_key(m1, 0) != _invariant_key(m2, 0):
        return False
    pools = {}
    for j in range(1, n):
        pools.setdefault(_invariant_key(m2, j), []).append(j)
    want = sorted(_invariant_key(m1, i) for i in range(1, n))
    have = sorted(k for k, js in pools.items() for _ in js)
    if want != have:
        return False

    perm = [0] + [-1] * (n - 1)
    used = [False] * n

    def consistent(i: int, j: int) -> bool:
        if m1.s_tilde[i][i] != m2.s_tilde[j][j]:
            return False
        di = m1.dual[i]
        if di <= i and m2.dual[j] != perm[di]:
            return False
        for a in range(i):
            if m1.s_tilde[i][a] != m2.s_tilde[j][perm[a]]:
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in pools.get(_invariant_key(m1, i), []):
            if used[j] or not consistent(i, j):
                continue
            perm[i] = j
            used[j] = True
            if extend(i + 1):
                return True
            perm[i] = -1
            used[j] = False
        return False

    return extend(1)
