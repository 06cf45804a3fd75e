"""Root systems of positive definite even lattices.

The norm-2 vectors of an even lattice form a simply laced root system.
Call x in Z^n positive when its first nonzero coordinate is.  This order
is total and compatible with addition, and on the finite set of roots it
agrees with the functional (1, e, e^2, ...) for small e > 0, which is
nonzero on every root.  So the positive roots that are not a sum of two
positive roots form a base (Humphreys, *Introduction to Lie Algebras and
Representation Theory*, §10.1).  For roots r != q, (r - q, r - q) =
4 - 2 (r, q), so r - q is a root iff (r, q) = 1; and r = a + b with
a, b > 0 gives (r, a) = 1 with a < r.  Hence a positive root r is simple
iff no positive q < r has (r, q) = 1.

The simple roots are independent, so their Gram matrix C (the Cartan
matrix) is positive definite; for simple a != b, a - b is not a root and
|(a, b)| < 2, so (a, b) is 0 or -1.  By the classification of such
matrices (Humphreys §11.4) each connected block of C is A_k, D_k
(k >= 4) or E_k (k = 6, 7, 8), of determinant k + 1, 4 or 9 - k (Conway
& Sloane, *SPLAG*, ch. 4).  At one rank these differ except at k = 3,
where D3 = A3, so the rank and the determinant of a block fix its type.

A norm-2 vector of L + M has no two nonzero parts, since each would have
even norm at least 2, so the roots of an orthogonal sum are those of its
summands.  `root_system` splits the Gram matrix (and C) into orthogonal
blocks with `theta._blocks` and enumerates each distinct block once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InternalError, ValidationError
from . import theta
from .lattice import EvenLattice

_E_COUNTS = {6: 72, 7: 126, 8: 240}


@dataclass(frozen=True)
class RootSystemReport:
    """Irreducible components (type, rank) with the total number of roots."""

    components: tuple[tuple[str, int], ...]
    root_count: int


def _simple_roots(l: EvenLattice, roots) -> tuple[np.ndarray, np.ndarray]:
    """The simple roots, one per row in increasing lexicographic order, and
    their Gram matrix.  `roots` holds every root, both signs of each.

    The pairings are int64 and may wrap, but arithmetic mod 2^64 is a ring
    map and a pairing of two roots lies in [-2, 2], so each is exact.
    """
    roots = np.asarray(roots, dtype=np.int64)
    # r -> -r reverses the order, so the positive roots are the upper half.
    ordered = roots[np.lexsort(roots.T[::-1])]
    positive = ordered[len(ordered) // 2:]
    pairs = positive @ np.array(l.gram, dtype=np.int64) @ positive.T
    simple = ~np.tril(pairs == 1, -1).any(axis=1)
    return positive[simple], pairs[np.ix_(simple, simple)]


def _ade(k: int, det: int) -> tuple[str, int]:
    """The type and root count of a connected simply laced Cartan matrix
    of rank k and determinant det."""
    if det == k + 1:
        return "A", k * (k + 1)
    if det == 4 and k >= 4:
        return "D", 2 * k * (k - 1)
    if det == 9 - k and k in _E_COUNTS:
        return "E", _E_COUNTS[k]
    raise InternalError(f"a Cartan block of rank {k} and determinant {det} is not ADE")


def root_system(l: EvenLattice) -> RootSystemReport:
    components: list[tuple[str, int]] = []
    count = 0
    for block, copies in theta._blocks(l):
        report = _block_roots(block)
        components += report.components * copies
        count += report.root_count * copies
    return RootSystemReport(tuple(sorted(components)), count)


def _block_roots(l: EvenLattice) -> RootSystemReport:
    _, roots = theta._enumerate(l, 2, store=True)
    if not len(roots):
        return RootSystemReport((), 0)
    _, cartan = _simple_roots(l, roots)
    if not np.isin(cartan[~np.eye(len(cartan), dtype=bool)], (0, -1)).all():
        raise InternalError("simple roots of an even lattice must "
                            "pair to 0 or -1")
    try:
        blocks = theta._blocks(EvenLattice(tuple(map(tuple, cartan.tolist()))))
    except ValidationError as e:
        raise InternalError(f"Cartan matrix of the simple roots refused: {e}") from None

    components = []
    expected = 0
    for block, copies in blocks:
        kind, count = _ade(block.rank, block.det)
        components += [(kind, block.rank)] * copies
        expected += count * copies
    if expected != len(roots):
        raise InternalError(f"components {sorted(components)} predict "
                            f"{expected} roots, found {len(roots)}")
    return RootSystemReport(tuple(sorted(components)), len(roots))
