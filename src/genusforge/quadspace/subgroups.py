"""Subgroups of a finite quadratic space: isotropic enumeration, orthogonal
complements, and the induced form on C-perp / C.

Isotropic subgroups are generated without a dedup store: every subgroup has
a unique minimal generating chain (g_1 = smallest nonzero element, g_{t+1} =
smallest element outside the span so far), and the search extends a chain
only by the element that the child's own chain would pick next.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import InternalError, LimitError, NonIsotropicSubgroupError
from .space import FiniteQuadraticSpace, subquotient

Coords = tuple[int, ...]


@dataclass(frozen=True)
class Subgroup:
    """Materialized subgroup; canonical identity is the sorted element list."""

    elements: tuple[Coords, ...]
    generators: tuple[Coords, ...] = field(compare=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return tuple(x) in set(self.elements)

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order}, generators={list(self.generators)})"


def closure(s: FiniteQuadraticSpace, gens: Iterable[Coords]) -> set[Coords]:
    group = s.group
    zero = tuple([0] * s.rank)
    out = {zero}
    frontier = [zero]
    gen_list = [group.reduce(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gen_list:
            y = group.add(x, g)
            if y not in out:
                out.add(y)
                frontier.append(y)
    return out


def minimal_chain(s: FiniteQuadraticSpace, elements: set[Coords]) -> tuple[Coords, ...]:
    """The canonical generating chain: repeatedly the smallest missing element."""
    chain: list[Coords] = []
    span = {tuple([0] * s.rank)}
    universe = sorted(elements)
    while len(span) < len(elements):
        nxt = next(x for x in universe if x not in span)
        chain.append(nxt)
        span = closure(s, chain)
    return tuple(chain)


def subgroup_from_elements(s: FiniteQuadraticSpace,
                           elements: Iterable[Coords]) -> Subgroup:
    elts = {s.group.reduce(x) for x in elements}
    return Subgroup(elements=tuple(sorted(elts)),
                    generators=minimal_chain(s, elts))


def subgroup_from_generators(s: FiniteQuadraticSpace,
                             gens: Iterable[Coords]) -> Subgroup:
    return subgroup_from_elements(s, closure(s, gens))


def trivial_subgroup(s: FiniteQuadraticSpace) -> Subgroup:
    return Subgroup(elements=(tuple([0] * s.rank),), generators=())


def isotropic_subgroups(s: FiniteQuadraticSpace, cap: int = 4096) -> list[Subgroup]:
    """All subgroups C with q vanishing on C, trivial subgroup included.

    The cap bounds the work: LimitError when |A| exceeds it, and as soon as
    the search has found more than cap subgroups.

    Isotropy of every element forces b to vanish on C x C, so extensions only
    need the new generator to be isotropic and b-orthogonal to the chain.
    """
    if s.order > cap:
        raise LimitError(f"group order {s.order} exceeds isotropic cap {cap}")
    zero = tuple([0] * s.rank)
    t = s.table
    iso_elements = list(map(tuple, t.coords[t.q == 0].tolist()))
    results: list[Subgroup] = []
    # (element set, canonical chain)
    stack: list[tuple[set[Coords], tuple[Coords, ...]]] = [({zero}, ())]
    while stack:
        elts, chain = stack.pop()
        results.append(Subgroup(elements=tuple(sorted(elts)), generators=chain))
        if len(results) > cap:
            raise LimitError(f"more than {cap} isotropic subgroups; the cap stops the search")
        for v in iso_elements:
            if v in elts or (chain and v <= chain[-1]):
                continue
            if any(s.pair(v, g) % s.level for g in chain):
                continue
            child = closure(s, list(chain) + [v])
            # Canonical chains increase, so the child is new exactly when its
            # own chain would extend ours by v.
            if min(x for x in child if x not in elts) == v:
                stack.append((child, chain + (v,)))
    results.sort(key=lambda sub: (sub.order, sub.elements))
    return results


def orthogonal_complement(s: FiniteQuadraticSpace, c: Subgroup) -> Subgroup:
    coords = s.table.coords
    gens = np.array(c.generators, dtype=np.int64).reshape(len(c.generators), s.rank)
    perp = (coords @ (s.gram_array @ gens.T % s.level) % s.level == 0).all(axis=1)
    return subgroup_from_elements(s, map(tuple, coords[perp].tolist()))


def quotient_space(s: FiniteQuadraticSpace, c: Subgroup) -> FiniteQuadraticSpace:
    """The induced space on C-perp / C for an isotropic subgroup C."""
    for x in c.elements:
        if not s.eval_q(x).is_zero():
            raise NonIsotropicSubgroupError(
                f"subgroup element {x} has q = {s.eval_q(x).value}, not isotropic")
    perp = orthogonal_complement(s, c)
    result = subquotient(s, perp.generators, c.generators)
    expected = s.order // (c.order * c.order)
    if result.order != expected:
        raise InternalError(
            f"quotient has order {result.order}, expected |A|/|C|^2 = {expected}")
    return result
