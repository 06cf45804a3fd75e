"""Discriminant forms, signatures, and genus symbols of even lattices.

The dual quotient L*/L is read off the Smith normal form U G V = D of the
Gram matrix G.  Since G^(-1) = V D^(-1) U, column i of V divided by d_i is
a vector of L* (in the basis of L), and these classes generate L*/L with
orders d_1 | d_2 | ... .  The form on two of them is
(V^T G V)_ij / (d_i d_j), so the discriminant form comes out as integer
data at level d_n, with no rational inverse of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import InternalError, ValidationError
from ..exactkernel import rational_signature, smith_normal_form
from ..quadspace import (
    FiniteQuadraticSpace,
    is_isometric,
    signature_mod8,
    space_from_gram,
    trivial_space,
)
from .lattice import EvenLattice


def _disc_with_lifts(l: EvenLattice):
    """Discriminant form plus rational lift vectors, one per generator.

    Returns (space, lifts) where lifts[i] is a vector in Q^n, written in
    the basis of L, representing generator i of the space inside L*.
    """
    g = l.gram
    n = l.rank
    snf = smith_normal_form(g)
    d = snf.diagonal
    v = snf.v
    kept = [i for i in range(n) if d[i] != 1]
    if not kept:
        return trivial_space(), []
    orders = [d[i] for i in kept]
    level = orders[-1]
    gv = [[sum(g[r][c] * v[c][j] for c in range(n)) for j in kept] for r in range(n)]
    gram = [[sum(v[r][i] * gv[r][k] for r in range(n)) * level // (d[i] * d[j])
             for k, j in enumerate(kept)] for i in kept]
    space = space_from_gram(orders, level, gram)
    if space.orders != tuple(orders):
        raise InternalError("SNF orders should survive canonicalization")
    lifts = [tuple(Fraction(v[r][i], d[i]) for r in range(n)) for i in kept]
    return space, lifts


def discriminant_form(l: EvenLattice) -> FiniteQuadraticSpace:
    """The finite quadratic space (L*/L, q) with q(x) = (x, x) mod 2Z."""
    space, _ = _disc_with_lifts(l)
    return space


def signature(l: EvenLattice) -> tuple[int, int]:
    pos, neg, zero = rational_signature(l.gram)
    if zero:
        raise InternalError("nonsingular Gram matrix cannot have zero signature part")
    return pos, neg


@dataclass(frozen=True)
class GenusSymbol:
    """A genus, recorded as (discriminant form, signature pair)."""

    disc_form: FiniteQuadraticSpace
    signature: tuple[int, int]

    def __post_init__(self) -> None:
        pos, neg = self.signature
        if signature_mod8(self.disc_form) != (pos - neg) % 8:
            raise InternalError("signature and discriminant form violate the "
                                "mod-8 signature relation")


def genus_symbol(l: EvenLattice) -> GenusSymbol:
    return GenusSymbol(discriminant_form(l), signature(l))


def same_genus(l1: EvenLattice, l2: EvenLattice) -> bool:
    """Equal signature and isometric discriminant forms."""
    if signature(l1) != signature(l2):
        return False
    return is_isometric(discriminant_form(l1), discriminant_form(l2)) is not None


def exists_lattice(s: FiniteQuadraticSpace, sig: tuple[int, int]) -> str:
    """Existence of an even lattice with the given discriminant form and
    signature: returns "yes", "no", or "unknown".

    The mod-8 signature relation and rank(A) <= n are necessary; together
    with strict inequality they are sufficient.  Equality needs a finer
    local criterion that is out of scope, hence "unknown".
    """
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
