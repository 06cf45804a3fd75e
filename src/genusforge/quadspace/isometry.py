"""Brute-force isometry testing between finite quadratic spaces.

The generators e_1, ..., e_n of s1 (invariant factors d_1 | ... | d_n) map
in order, depth first.  A boolean matrix holds, for each e_j, the elements
of s2 with its order and q; choosing the image y_i narrows every later row
to the x with b(x, y_i) = b(e_j, e_i) in one comparison, and a choice that
empties a row is cut (forward checking).

A complete assignment is an isometry with no further test.  Each y_i has
order d_i, so e_i -> y_i extends to a homomorphism f: s1 -> s2; it keeps b
on generator pairs, hence b everywhere, and q on generators, hence q
everywhere (q(x + y) = q(x) + q(y) + 2 b(x, y)).  An x in the kernel of f
has b(x, z) = b(f(x), f(z)) = 0 for every z, so x = 0 because s1 is
nondegenerate: f is injective, and |s1| = |s2| makes it bijective.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

import numpy as np

from ..errors import LimitError, check_cap
from .space import FiniteQuadraticSpace
from .subgroups import _indices, _rows, _span

Coords = tuple[int, ...]

_log = logging.getLogger(__name__)


def verify_isometry(s1: FiniteQuadraticSpace, s2: FiniteQuadraticSpace,
                    images: tuple[Coords, ...]) -> bool:
    """Check that mapping generator i of s1 to images[i] is an isometry."""
    if s1.orders != s2.orders or len(images) != s1.rank:
        return False
    ys = _indices(s2, images)
    if s1.level != s2.level:
        return False
    t2 = s2.table
    y = t2.coords[ys]
    # G is reduced mod 2N on the diagonal (q) and mod N off it (b).
    moduli = np.where(np.eye(s1.rank, dtype=bool), 2 * s1.level, s1.level)
    return (np.array_equal(t2.order[ys], s1.orders)
            and np.array_equal(y @ s2.gram_array @ y.T % moduli, s1.gram_array)
            and len(_span(s2, images)[0]) == s1.order)


def is_isometric(s1: FiniteQuadraticSpace, s2: FiniteQuadraticSpace,
                 cap: int = 3000) -> Optional[tuple[Coords, ...]]:
    """A generator-image witness if the spaces are isometric, else None.

    Equal canonical encodings are equal forms, so equal spaces get the
    identity at once, with no element table built.  Otherwise candidates
    for each image are tried literal generator first, then in ascending
    element order.  Forward checking cuts only choices with no completion.
    """
    check_cap(cap)
    if s1.orders != s2.orders:
        return None
    if s1.order > cap:
        raise LimitError(f"group order {s1.order} exceeds isometry cap {cap}")
    if s1.order == 1:
        return ()
    if s1 == s2:
        return s1.generators()
    # Isometric spaces share the level, the least common denominator of all
    # their values, so q numerators compare directly.
    if s1.level != s2.level or not np.array_equal(np.sort(s1.table.q), np.sort(s2.table.q)):
        return None

    start = time.perf_counter()
    level, n, gram = s1.level, s1.rank, s1.gram_array
    coords, q, order = s2.table
    radix = s2.radix
    products = coords @ s2.gram_array
    images: list[int] = []
    nodes = cuts = 0

    def extend(i: int, rows: np.ndarray) -> bool:
        # rows[j]: the candidates left for e_{i+j}.
        nonlocal nodes, cuts
        for x in sorted(rows[0].nonzero()[0].tolist(), key=int(radix[i]).__ne__):
            nodes += 1
            images.append(x)
            if i + 1 == n:
                return True
            later = rows[1:] & (products @ coords[x] % level == gram[i + 1:, i, None])
            if not later.any(axis=1).all():
                cuts += 1
            elif extend(i + 1, later):
                return True
            images.pop()
        return False

    found = extend(0, (order == s2.orders_array[:, None]) & (q == gram.diagonal()[:, None]))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("isometry search on |A| = %d: %d nodes, witness %s, %d cut by forward "
                   "checking, %.3f s", s1.order, nodes, "found" if found else "not found",
                   cuts, time.perf_counter() - start)
    return _rows(s2, images) if found else None
