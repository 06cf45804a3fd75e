"""Subgroups of a finite quadratic space: isotropic enumeration, orthogonal
complements, and the induced form on C-perp / C.

A subgroup is held as the indices of its elements in the space's element
table.  The index of x is its mixed-radix position sum_i x_i * radix_i in
`elements()` order, so index order is the lexicographic order of the
coordinate tuples.  A span grows one coset at a time: with H spanned so far
and a new generator y, it adds H + k*y for k = 1, 2, ... until k*y lands
in H, which gives |H + <y>| = |H| * k.

Isotropic subgroups are generated without a dedup store: every subgroup has
a unique minimal generating chain (g_1 = smallest nonzero element, g_{t+1} =
smallest element outside the span so far), and the search extends a chain
only by the element that the child's own chain would pick next.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np

from ..errors import InternalError, LimitError, NonIsotropicSubgroupError, check_cap
from .space import FiniteQuadraticSpace, subquotient

Coords = tuple[int, ...]

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Subgroup:
    """Materialized subgroup; canonical identity is the sorted element list."""

    elements: tuple[Coords, ...]
    generators: tuple[Coords, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, generators={list(self.generators)})"


def _index(s: FiniteQuadraticSpace, rows: np.ndarray) -> np.ndarray:
    """Table indices of integer coordinate rows (last axis), reduced mod
    the orders."""
    return rows % s.orders_array @ s.radix


def _indices(s: FiniteQuadraticSpace, elements: Iterable[Coords]) -> np.ndarray:
    """Table indices of the elements, each validated."""
    rows = [s.group.reduce(x) for x in elements]
    return _index(s, np.array(rows, dtype=np.int64).reshape(len(rows), s.rank))


def _trivial_span(s: FiniteQuadraticSpace) -> tuple[np.ndarray, np.ndarray]:
    mask = np.zeros(s.order, dtype=bool)
    mask[0] = True
    return np.zeros(1, dtype=np.int64), mask


def _grow(s: FiniteQuadraticSpace, idx: np.ndarray, mask: np.ndarray,
          x: int) -> tuple[np.ndarray, np.ndarray]:
    """The span of the subgroup (idx, mask) and the element of index x."""
    block = s.table.coords[idx]
    y = s.table.coords[x]
    mask = mask.copy()
    cosets = [idx]
    ky = y
    # (k*y in H + j*y for j < k) iff (k - j)*y in H, so the mask grown so
    # far answers "k*y in H" for the smallest such k.
    while not mask[_index(s, ky)]:
        coset = _index(s, block + ky)
        mask[coset] = True
        cosets.append(coset)
        ky = ky + y
    return np.concatenate(cosets), mask


def _span(s: FiniteQuadraticSpace, gens: Iterable[Coords]) -> tuple[np.ndarray, np.ndarray]:
    idx, mask = _trivial_span(s)
    for x in _indices(s, gens).tolist():
        idx, mask = _grow(s, idx, mask, x)
    return idx, mask


def _rows(s: FiniteQuadraticSpace, idx) -> tuple[Coords, ...]:
    return tuple(map(tuple, s.table.coords[idx].tolist()))


def closure(s: FiniteQuadraticSpace, gens: Iterable[Coords]) -> set[Coords]:
    return set(_rows(s, _span(s, gens)[0]))


def _chain(s: FiniteQuadraticSpace, members: np.ndarray) -> list[int]:
    """Indices of the canonical chain of the element set with this mask."""
    chain: list[int] = []
    idx, mask = _trivial_span(s)
    total = int(members.sum())
    while len(idx) < total:
        nxt = int(np.argmax(members & ~mask))
        chain.append(nxt)
        idx, mask = _grow(s, idx, mask, nxt)
    return chain


def _subgroup(s: FiniteQuadraticSpace, members: np.ndarray) -> Subgroup:
    return Subgroup(elements=_rows(s, np.flatnonzero(members)),
                    generators=_rows(s, _chain(s, members)))


def subgroup_from_generators(s: FiniteQuadraticSpace,
                             gens: Iterable[Coords]) -> Subgroup:
    return _subgroup(s, _span(s, gens)[1])


def isotropic_subgroups(s: FiniteQuadraticSpace, cap: int = 4096) -> list[Subgroup]:
    """All subgroups C with q vanishing on C, trivial subgroup included.

    The cap bounds the work: LimitError when |A| exceeds it, and as soon as
    the search has found more than cap subgroups.

    Isotropy of every element forces b to vanish on C x C, so extensions only
    need the new generator v to be isotropic and b-orthogonal to the chain.
    Each stack entry carries those candidates above its last generator.  All
    candidates of a node are tested at once: the cosets H + k*v are laid out
    for every v, and v is canonical when it is the least new element.
    """
    check_cap(cap)
    if s.order > cap:
        raise LimitError(f"group order {s.order} exceeds isotropic cap {cap}")
    start = time.perf_counter()
    t = s.table
    coords, gram, level = t.coords, s.gram_array, s.level
    idx, mask = _trivial_span(s)
    # (span indices, span mask, chain indices, candidates)
    stack = [(idx, mask, (), np.flatnonzero(t.q == 0)[1:])]
    found: list[tuple[list[int], tuple[int, ...]]] = []
    nodes = 0
    while stack:
        idx, mask, chain, cand = stack.pop()
        found.append((np.sort(idx).tolist(), chain))
        if len(found) > cap:
            raise LimitError(f"more than {cap} isotropic subgroups; the cap stops the search")
        cand = cand[~mask[cand]]
        if not len(cand):
            continue
        nodes += 1
        block = coords[idx]
        v = coords[cand]
        ky = v
        least = np.full(len(cand), s.order, dtype=np.int64)
        live = np.ones(len(cand), dtype=bool)
        while live.any():
            cosets = _index(s, block[None, :, :] + ky[live][:, None, :])
            least[live] = np.minimum(least[live], cosets.min(axis=1))
            ky = ky + v
            live &= ~mask[_index(s, ky)]
        for x in cand[least == cand].tolist():
            rest = cand[cand > x]
            rest = rest[coords[rest] @ (gram @ coords[x]) % level == 0]
            stack.append((*_grow(s, idx, mask, x), chain + (x,), rest))
    found.sort(key=lambda f: (len(f[0]), f[0]))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("isotropic subgroups of |A| = %d: %d nodes expanded, %d subgroups, %.3f s",
                   s.order, nodes, len(found), time.perf_counter() - start)
    return [Subgroup(elements=_rows(s, elts), generators=_rows(s, list(chain)))
            for elts, chain in found]


def orthogonal_complement(s: FiniteQuadraticSpace, c: Subgroup) -> Subgroup:
    coords = s.table.coords
    gens = np.array(c.generators, dtype=np.int64).reshape(len(c.generators), s.rank)
    perp = (coords @ (s.gram_array @ gens.T % s.level) % s.level == 0).all(axis=1)
    return _subgroup(s, perp)


def quotient_space(s: FiniteQuadraticSpace, c: Subgroup) -> FiniteQuadraticSpace:
    """The induced space on C-perp / C for an isotropic subgroup C."""
    q = s.table.q[_indices(s, c.elements)]
    bad = np.flatnonzero(q)
    if len(bad):
        raise NonIsotropicSubgroupError(
            f"subgroup element {c.elements[bad[0]]} has q = "
            f"{Fraction(int(q[bad[0]]), s.level)}, not isotropic")
    perp = orthogonal_complement(s, c)
    result = subquotient(s, perp.generators, c.generators)
    expected = s.order // (c.order * c.order)
    if result.order != expected:
        raise InternalError(
            f"quotient has order {result.order}, expected |A|/|C|^2 = {expected}")
    return result
