"""Even overlattices via isotropic subgroups of the discriminant form.

Each isotropic subgroup C of L*/L determines the even overlattice
K = L + (lifts of C); the correspondence is a bijection.  Generator i of
L*/L lifts to v_i / d_i with v_i an integer vector, so a generator of C
lifts to integer numerators over the level N.  Those numerators, reduced
by their common gcd with N, and t times the rows of L, where t is the
reduced denominator, span t K; its row lattice basis divided by t is a
basis of K.
"""

from __future__ import annotations

from math import gcd, lcm

from ..errors import InternalError
from ..exactkernel import mat_mul, row_lattice_basis, transpose
from ..quadspace import Subgroup, is_isometric, isotropic_subgroups, quotient_space
from .discform import _disc_with_lifts, discriminant_form
from .lattice import EvenLattice, build_lattice


def overlattices(l: EvenLattice, cap: int = 4096) -> list[tuple[Subgroup, EvenLattice]]:
    """(C, K) for every isotropic subgroup C, with [K : L] = |C|.

    Every returned Gram matrix is re-verified: integral with even diagonal,
    determinant det(L)/|C|^2, and discriminant form isometric to the
    quotient of L's discriminant form by C.
    """
    disc, columns, orders = _disc_with_lifts(l)
    n = l.rank
    det = l.det
    level = lcm(1, *orders)
    # Column i of V over d_i is column i scaled by level/d_i over the level.
    scaled = [[x * (level // d) for x in col] for col, d in zip(columns, orders)]
    out = []
    for c in isotropic_subgroups(disc, cap=cap):
        nums = mat_mul(c.generators, scaled)
        common = gcd(level, *(x for num in nums for x in num))
        t = level // common
        rows = [[t if r == s else 0 for s in range(n)] for r in range(n)]
        rows.extend([x // common for x in num] for num in nums)
        basis = row_lattice_basis(rows)
        if len(basis) != n:
            raise InternalError("overlattice basis must have full rank")
        scaled_gram = mat_mul(mat_mul(basis, l.gram), transpose(basis))
        if any(x % (t * t) for row in scaled_gram for x in row):
            raise InternalError("overlattice Gram entry not integral")
        new_gram = [[x // (t * t) for x in row] for row in scaled_gram]
        k = build_lattice(new_gram,
                          f"{l.name}^(+{c.order})" if l.name and c.order > 1 else l.name)
        if k.det * c.order ** 2 != det:
            raise InternalError("overlattice determinant does not match index")
        if is_isometric(discriminant_form(k), quotient_space(disc, c)) is None:
            raise InternalError("overlattice discriminant form does not match "
                                "the quotient form")
        out.append((c, k))
    return out
