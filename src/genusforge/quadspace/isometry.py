"""Brute-force isometry testing between finite quadratic spaces.

The generators e_1, ..., e_n of s1 (invariant factors d_1 | ... | d_n) map
in order.  The image y of e_i is picked from one mask over the element
table of s2: y has order d_i, q(y) = q(e_i), and b(y, y_j) = b(e_i, e_j)
for every earlier image y_j.  The images so far span a subgroup H of s2,
held as element indices; y is kept only if <y> meets H trivially, so that
|H + <y>| = |H| * d_i = |<e_1, ..., e_i>|.  At full depth the induced
homomorphism is therefore bijective, and any complete assignment is a
genuine isometry witness.
"""

from __future__ import annotations

import logging
import time
from typing import Optional

import numpy as np

from ..errors import LimitError
from .decompose import _factorize
from .space import FiniteQuadraticSpace
from .subgroups import _check_cap, _grow, _index, _indices, _rows, _span, _trivial_span

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
    pairs = y @ s2.gram_array @ y.T
    gram = s1.gram_array
    off = ~np.eye(s1.rank, dtype=bool)
    return (np.array_equal(t2.order[ys], s1.orders)
            and np.array_equal(t2.q[ys], gram.diagonal())
            and np.array_equal(pairs[off] % s1.level, gram[off])
            and len(_span(s2, images)[0]) == s1.order)


def is_isometric(s1: FiniteQuadraticSpace, s2: FiniteQuadraticSpace,
                 cap: int = 3000) -> Optional[tuple[Coords, ...]]:
    """A generator-image witness if the spaces are isometric, else None.

    Candidates for each image are tried literal generator first, then in
    ascending element order, so a space compared with itself reports the
    identity.
    """
    _check_cap(cap)
    if s1.order != s2.order:
        return None
    if s1.orders != s2.orders:
        return None
    if s1.order > cap:
        raise LimitError(f"group order {s1.order} exceeds isometry cap {cap}")
    if s1.order == 1:
        return ()
    # Isometric spaces share the level, the least common denominator of all
    # their values, so q numerators compare directly.
    if s1.level != s2.level or not np.array_equal(np.sort(s1.table.q), np.sort(s2.table.q)):
        return None

    start = time.perf_counter()
    level, n = s1.level, s1.rank
    t2 = s2.table
    products = t2.coords @ s2.gram_array
    # profile[i]: elements with the order and q of e_i.  <y> meets H
    # exactly when some (d_i / p) * y, p a prime dividing d_i, lies in H;
    # multiples[c] holds the index of c * y for every y.
    profile = [(t2.order == d) & (t2.q == s1.gram[i][i]) for i, d in enumerate(s1.orders)]
    cofactors = [[d // p for p in _factorize(d)] for d in s1.orders]
    multiples = {c: _index(s2, c * t2.coords) for cs in cofactors for c in cs}
    generators = _index(s2, np.eye(n, dtype=np.int64))
    pairings: list[np.ndarray] = []
    images: list[int] = []
    nodes = 0

    def extend(i: int, idx: np.ndarray, mask: np.ndarray) -> bool:
        nonlocal nodes
        fits = profile[i].copy()
        for j, pj in enumerate(pairings):
            fits &= pj == s1.gram[i][j]
        for c in cofactors[i]:
            fits &= ~mask[multiples[c]]
        cand = np.flatnonzero(fits)
        e = generators[i]
        for x in np.concatenate([cand[cand == e], cand[cand != e]]).tolist():
            nodes += 1
            images.append(x)
            pairings.append(products @ t2.coords[x] % level)
            if i + 1 == n or extend(i + 1, *_grow(s2, idx, mask, x)):
                return True
            images.pop()
            pairings.pop()
        return False

    found = extend(0, *_trivial_span(s2))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("isometry search on |A| = %d: %d nodes, witness %s, %.3f s",
                   s1.order, nodes, "found" if found else "not found",
                   time.perf_counter() - start)
    return _rows(s2, images) if found else None
