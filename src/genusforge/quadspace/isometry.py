"""Brute-force isometry testing between finite quadratic spaces.

Generators map in canonical order; a partial assignment survives only if it
matches element orders, q-values, pairwise b-values, and the size of the
subgroup generated so far.  The size condition at full depth forces the
induced homomorphism to be bijective, so any complete assignment is a
genuine isometry witness.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import LimitError
from .space import FiniteQuadraticSpace
from .subgroups import closure

Coords = tuple[int, ...]


def verify_isometry(s1: FiniteQuadraticSpace, s2: FiniteQuadraticSpace,
                    images: tuple[Coords, ...]) -> bool:
    """Check that mapping generator i of s1 to images[i] is an isometry."""
    if s1.order != s2.order or len(images) != s1.rank:
        return False
    gens = s1.generators()
    for i, g in enumerate(gens):
        if s2.group.element_order(images[i]) != s1.orders[i]:
            return False
        if s2.eval_q(images[i]) != s1.eval_q(g):
            return False
        for j in range(i):
            if s2.eval_b(images[i], images[j]) != s1.eval_b(g, gens[j]):
                return False
    return len(closure(s2, images)) == s1.order


def is_isometric(s1: FiniteQuadraticSpace, s2: FiniteQuadraticSpace,
                 cap: int = 3000) -> Optional[tuple[Coords, ...]]:
    """A generator-image witness if the spaces are isometric, else None."""
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

    level = s1.level
    gens = s1.generators()
    n = s1.rank
    # Subgroup sizes along s1's generator chain; images must track them.
    sizes = [len(closure(s1, gens[: i + 1])) for i in range(n)]
    t2 = s2.table
    by_profile: dict[tuple[int, int], list[Coords]] = {}
    for y, order, q in zip(map(tuple, t2.coords.tolist()), t2.order.tolist(), t2.q.tolist()):
        by_profile.setdefault((order, q), []).append(y)

    images: list[Coords] = []

    def extend(i: int) -> bool:
        if i == n:
            return True
        g = gens[i]
        want = s1.gram[i]
        pool = by_profile.get((s1.orders[i], want[i]), [])
        # Stable order, but try the literal generator first so that a space
        # compared with itself reports the identity.
        ordered = sorted(pool, key=lambda y: (y != g, y))
        for y in ordered:
            if any(s2.pair(y, images[j]) % level != want[j] for j in range(i)):
                continue
            images.append(y)
            if len(closure(s2, images)) == sizes[i] and extend(i + 1):
                return True
            images.pop()
        return False

    if extend(0):
        return tuple(images)
    return None
