"""Central-charge compatibility and extension bookkeeping.

The anomaly test asks whether G = sum_j theta_j dim_j^2 equals
exp(2 pi i c/8) sqrt(D), without ever taking a square root.  G is a
vector of integer counts over one root of unity zeta_M: the counts of the
exponent sums tau_j + e + e' over the terms e, e' of dim_j in the term
table.  `gauss_phase` squares the counts by cyclic convolution in
integers, finds the root of unity G^2/D, and settles the remaining sign
with one integer sum compared with its proven error, derived in
`exactkernel.cyclotomic._unit_circle`.  The phase is an integer t with
G = sqrt(D) zeta_(4M)^t, and c = p/q passes when 4Mp = 8qt mod 32qM.
(A quadratic space needs none of this: `signature_mod8` reads its phase
off a Jordan splitting, with no Gauss sum formed.)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from fractions import Fraction

from ..errors import LimitError, ValidationError, check_cap
from ..exactkernel import gauss_phase
from ..exactkernel.rationals import RationalLike, as_fraction, fraction_str
from ..quadspace import (
    FiniteQuadraticSpace,
    Subgroup,
    isotropic_subgroups,
    quotient_space,
)
from .data import ModularData

_log = logging.getLogger(__name__)


def voa_milgram_check(m: ModularData, c: RationalLike) -> bool:
    """Whether sum_j theta_j d_j^2 equals exp(2 pi i c/8) sqrt(D)."""
    c, quarter = as_fraction(c), 4 * m.terms.order
    phase = gauss_phase(m.terms.order, m.gauss_counts, m.discriminant)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("Milgram check of %d labels at c = %s: %s", m.n, c,
                   "integer square test failed" if phase is None else
                   "integer square test and one certified interval, phase "
                   + fraction_str(phase, quarter))
    p, q = c.numerator, c.denominator  # t/(4M) = p/(8q) mod 1
    return phase is not None and (p * quarter - 8 * q * phase) % (8 * q * quarter) == 0


@dataclass(frozen=True)
class ExtensionReport:
    """One isotropic subgroup C and the category C-perp/C it extends to."""

    subgroup: Subgroup
    quotient: FiniteQuadraticSpace


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


def voa_genus_equal(g1: VoaGenusSymbol, g2: VoaGenusSymbol,
                    cap: int = 16) -> bool:
    """Equal central charge and label bijection fixing 0 matching the data."""
    check_cap(cap)
    if g1.central_charge != g2.central_charge:
        return False
    m1, m2 = g1.data, g2.data
    n = m1.n
    if n != m2.n:
        return False
    if n > cap:
        raise LimitError(f"label set of size {n} exceeds cap {cap}")
    # labels are matched by twist, t1/o1 == t2/o2 as t1 o2 == t2 o1; dims
    # are compared exactly through row 0 of s_tilde, whose equality test is
    # representation independent
    (o1, _, t1), (o2, _, t2) = m1.terms, m2.terms
    key1, key2 = (t1 * o2).tolist(), (t2 * o1).tolist()
    if key1[0] != key2[0] or sorted(key1[1:]) != sorted(key2[1:]):
        return False
    pools = {}
    for j in range(1, n):
        pools.setdefault(key2[j], []).append(j)

    perm = [0] + [-1] * (n - 1)
    used = [False] * n

    def consistent(i: int, j: int) -> bool:
        if m1.s_tilde[i][i] != m2.s_tilde[j][j]:
            return False
        di = m1.dual[i]
        # a self-dual i must go to a self-dual j; perm[i] is set only later
        if di <= i and m2.dual[j] != (j if di == i else perm[di]):
            return False
        for a in range(i):
            if m1.s_tilde[i][a] != m2.s_tilde[j][perm[a]]:
                return False
        return True

    def extend(i: int) -> bool:
        if i == n:
            return True
        for j in pools.get(key1[i], []):
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
