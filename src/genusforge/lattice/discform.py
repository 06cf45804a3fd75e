"""Discriminant forms, signatures, and genus symbols of even lattices.

The dual quotient L*/L is read off the Smith normal form U G V = D of the
Gram matrix G, recording V (and U for overlattices).  Since
G^(-1) = V D^(-1) U, column i of V divided by d_i is a vector of L* (in
the basis of L), and these classes generate L*/L with orders
d_1 | d_2 | ... .  The form on two of them is
(V^T G V)_ij / (d_i d_j), so the discriminant form comes out as integer
data at level d_n, with no rational inverse of G.  A unimodular lattice
(|det| = 1, which the lattice keeps) has the trivial form and needs no
Smith normal form.  L*/L is nondegenerate by construction: an x in L*
that pairs integrally with all of L* lies in (L*)* = L.  So its encoding
skips the nondegeneracy test that `space_from_gram` runs on outside data.
The signature is read off the leading principal minors that the lattice
kept from its construction (Sylvester-Jacobi).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from ..errors import InternalError, ValidationError
from ..exactkernel import smith_normal_form
from ..quadspace import FiniteQuadraticSpace, trivial_space
from ..quadspace.space import _canonical_space
from .lattice import EvenLattice


def _disc_with_lifts(l: EvenLattice, transform: str = "v"):
    """Discriminant form plus integer lifts, one per generator.

    Returns (space, columns, orders, u_rows): generator i of the space is
    the class of columns[i] / orders[i] in L*/L, where columns[i] is an
    integer vector in the basis of L (a column of V).  The form is computed
    from these columns, so returning them builds nothing extra.  u_rows
    are the kept rows of U when transform="uv" records it, else None; as
    x = V D^(-1) (U G x), x in L* has class ((U G x)_i mod orders[i]).
    """
    if abs(l.det) == 1:
        return trivial_space(), [], [], []
    g = l.gram
    snf = smith_normal_form(g, transform)
    d = snf.diagonal
    kept = [i for i in range(l.rank) if d[i] != 1]
    orders = [d[i] for i in kept]
    level = orders[-1]
    cols = [col for col, di in zip(zip(*snf.v), d) if di != 1]
    # G is symmetric, so (V^T G V)_ij = v_i . (G v_j).
    g_cols = [[sum(map(mul, row, v)) for row in g] for v in cols]
    gram = [[sum(map(mul, vi, gv)) * level // (di * dj) for gv, dj in zip(g_cols, orders)]
            for vi, di in zip(cols, orders)]
    space = _canonical_space(orders, level, gram)
    if space.orders != tuple(orders):
        raise InternalError("SNF orders should survive canonicalization")
    u_rows = None if snf.u is None else [snf.u[i] for i in kept]
    return space, cols, orders, u_rows


def discriminant_form(l: EvenLattice) -> FiniteQuadraticSpace:
    """The finite quadratic space (L*/L, q) with q(x) = (x, x) mod 2Z."""
    space, _, _, _ = _disc_with_lifts(l)
    return space


def signature(l: EvenLattice) -> tuple[int, int]:
    """(n_plus, n_minus).  The elimination the lattice ran at construction
    writes P^T G P = L D L^T for an integral congruence P, with
    d_j = Delta_j / Delta_(j-1) from its leading principal minors, so by
    Sylvester's law of inertia n_minus is the number of sign changes in
    1, Delta_1, ..., Delta_n (Jacobi)."""
    minors = [row[0] for row in l.elimination]
    neg = sum((a < 0) != (b < 0) for a, b in zip([1] + minors, minors))
    return l.rank - neg, neg


@dataclass(frozen=True)
class GenusSymbol:
    """A genus, recorded as (discriminant form, signature pair)."""

    disc_form: FiniteQuadraticSpace
    signature: tuple[int, int]

    def __post_init__(self) -> None:
        from ..quadspace import signature_mod8
        pos, neg = self.signature
        if signature_mod8(self.disc_form) != (pos - neg) % 8:
            raise InternalError("signature and discriminant form violate the "
                                "mod-8 signature relation")


def genus_symbol(l: EvenLattice) -> GenusSymbol:
    return GenusSymbol(discriminant_form(l), signature(l))


def same_genus(l1: EvenLattice, l2: EvenLattice) -> bool:
    """Equal signature and isometric discriminant forms.  Equal canonical
    encodings are equal forms, so only unequal ones go to the search."""
    if signature(l1) != signature(l2):
        return False
    d1, d2 = discriminant_form(l1), discriminant_form(l2)
    if d1 == d2:
        return True
    from ..quadspace import is_isometric
    return is_isometric(d1, d2) is not None


def exists_lattice(s: FiniteQuadraticSpace, sig: tuple[int, int]) -> str:
    """Existence of an even lattice with the given discriminant form and
    signature: returns "yes", "no", or "unknown".

    The mod-8 signature relation and rank(A) <= n are necessary; together
    with strict inequality they are sufficient.  Equality needs a finer
    local criterion that is out of scope, hence "unknown".
    """
    from ..quadspace import signature_mod8
    pos, neg = sig
    if pos < 0 or neg < 0:
        raise ValidationError("signature counts must be nonnegative")
    total = pos + neg
    if total < s.rank:
        return "no"
    if signature_mod8(s) != (pos - neg) % 8:
        return "no"
    if total > s.rank:
        return "yes"
    return "unknown"
