"""Even overlattices via isotropic subgroups of the discriminant form.

Each isotropic subgroup C of L*/L determines the even overlattice
K = L + (lifts of C), the preimage pi^(-1)(C) under pi: L* -> L*/L; the
correspondence is a bijection, and K*/K is C-perp / C (Nikulin 1979, 1.4).  Generator i of L*/L lifts to
v_i / d_i with v_i an integer vector, so a generator of C lifts to integer
numerators over the level N.  Those numerators, reduced by their common
gcd with N, and t times the rows of L, where t is the reduced denominator,
span t K; its row lattice basis divided by t is a basis of K.

K is proved to be pi^(-1)(C) by its classes, with no quotient form and no
isometry search.  The Smith form U G V = D of L's Gram that gives the
lifts also gives U: a basis row b / t of K lies in L* when G b = 0 mod t,
with class ((U G b / t)_i mod d_i).  Classes in C put K inside pi^(-1)(C),
and det(K) |C|^2 = det(L) makes the two equal; an integral Gram with even
diagonal makes K even.
"""

from __future__ import annotations

import logging
import time
from math import gcd, lcm

from ..errors import InternalError
from ..exactkernel import mat_mul, row_lattice_basis, transpose
from ..quadspace import Subgroup, isotropic_subgroups
from .discform import _disc_with_lifts
from .lattice import EvenLattice, build_lattice

_log = logging.getLogger(__name__)


def overlattices(l: EvenLattice, cap: int = 4096) -> list[tuple[Subgroup, EvenLattice]]:
    """(C, K) for every isotropic subgroup C, with [K : L] = |C|.

    Every returned K is proved to be L + (lifts of C): its Gram matrix is
    integral with even diagonal, det(K) = det(L)/|C|^2, and each basis
    vector lies in L* with its class in C, so K*/K is C-perp / C.  The cap
    of `isotropic_subgroups` is the only cap.
    """
    start = time.perf_counter()
    disc, columns, orders, u_rows = _disc_with_lifts(l, "uv")
    n = l.rank
    det = l.det
    level = lcm(1, *orders)
    # Column i of V over d_i is column i scaled by level/d_i over the level.
    scaled = [[x * (level // d) for x in col] for col, d in zip(columns, orders)]
    ut = transpose(u_rows)
    subgroups = isotropic_subgroups(disc, cap=cap)
    out = []
    for c in subgroups:
        nums = mat_mul(c.generators, scaled)
        common = gcd(level, *(x for num in nums for x in num))
        t = level // common
        rows = [[t if r == s else 0 for s in range(n)] for r in range(n)]
        rows.extend([x // common for x in num] for num in nums)
        basis = row_lattice_basis(rows)
        if len(basis) != n:
            raise InternalError("overlattice basis must have full rank")
        # Row r of basis G is (G b_r)^T, as G is symmetric.
        bg = mat_mul(basis, l.gram)
        if any(x % t for row in bg for x in row):
            raise InternalError("overlattice basis vector not in the dual lattice")
        members = set(c.elements)
        for row in mat_mul(bg, ut):
            if tuple(x // t % d for x, d in zip(row, orders)) not in members:
                raise InternalError("overlattice basis vector has its class outside C")
        scaled_gram = mat_mul(bg, transpose(basis))
        if any(x % (t * t) for row in scaled_gram for x in row):
            raise InternalError("overlattice Gram entry not integral")
        new_gram = [[x // (t * t) for x in row] for row in scaled_gram]
        k = build_lattice(new_gram,
                          f"{l.name}^(+{c.order})" if l.name and c.order > 1 else l.name)
        if k.det * c.order ** 2 != det:
            raise InternalError("overlattice determinant does not match index")
        out.append((c, k))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("overlattices of |A| = %d: %d isotropic subgroups, %d overlattices, "
                   "each proved by K/L = C, %.3f s",
                   disc.order, len(subgroups), len(out), time.perf_counter() - start)
    return out
