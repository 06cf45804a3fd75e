"""Root systems of positive definite even lattices.

The norm-2 vectors of an even lattice always form a root system whose
components are simply laced, so classification only has to tell the ADE
shapes apart.  A generic integer functional f picks the positive roots,
and the simple ones are read off their Gram matrix.  For distinct roots
r and q, (r - q, r - q) = 4 - 2 (r, q), so r - q is a root exactly when
(r, q) = 1.  A positive root r is therefore a sum of two positive roots,
that is, not simple, iff some positive q has (r, q) = 1 and f(q) < f(r).

A norm-2 vector of L + M has no two nonzero parts, since each would have
even norm at least 2, so the roots of an orthogonal sum are those of its
summands (Conway & Sloane, *SPLAG*, ch. 4).  `root_system` therefore
splits the Gram matrix into orthogonal components (`theta._blocks`),
classifies each distinct block once, and repeats its components and root
count once per copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from ..errors import InternalError
from . import theta
from .lattice import EvenLattice

_EXPECTED_COUNTS = {"A": lambda n: n * (n + 1),
                    "D": lambda n: 2 * n * (n - 1),
                    "E": {6: 72, 7: 126, 8: 240}}


@dataclass(frozen=True)
class RootSystemReport:
    """Irreducible components (type, rank) with the total number of roots."""

    components: tuple[tuple[str, int], ...]
    root_count: int


def _simple_roots(l: EvenLattice, roots) -> tuple[np.ndarray, np.ndarray]:
    """The simple roots, one per row, and their Gram matrix.

    The functional f = (p^(n-1), ..., p, 1) vanishes on an integer vector
    only if that vector encodes a polynomial with root p, which happens
    for at most finitely many primes, so redrawing p always terminates.
    Its values are one int64 product while p^(n-1) n max|r| stays below
    2^62, and Python integers past that, so they are exact.  The pairings
    are int64 and may wrap, but arithmetic mod 2^64 is a ring map and a
    pairing of two roots lies in [-2, 2], so each is exact.
    """
    roots = np.asarray(roots, dtype=np.int64)
    n = l.rank
    bound = n * int(np.abs(roots).max())
    p = 2
    while True:
        f = [p ** (n - 1 - i) for i in range(n)]
        if f[0] * bound < 2 ** 62:
            values = roots @ np.array(f, dtype=np.int64)
        else:
            values = np.array([sum(map(mul, f, r)) for r in roots.tolist()], dtype=object)
        if values.all():
            break
        p = next(q for q in range(p + 1, 10 * p) if all(q % t for t in range(2, q)))
    # Positive roots in increasing order of f; f(q) != f(r) whenever
    # (r, q) = 1, since then r - q is a root and f(r - q) != 0.
    order = np.argsort(values, kind="stable")
    positive = roots[order[values[order] > 0]]
    pairs = positive @ np.array(l.gram, dtype=np.int64) @ positive.T
    simple = ~np.tril(pairs == 1, -1).any(axis=1)
    return positive[simple], pairs[np.ix_(simple, simple)]


def _classify_component(nodes, adj) -> tuple[str, int]:
    n = len(nodes)
    degrees = {v: len(adj[v]) for v in nodes}
    if any(d > 3 for d in degrees.values()):
        raise InternalError("degree > 3 in a simply laced Dynkin diagram")
    branches = [v for v in nodes if degrees[v] == 3]
    if not branches:
        return ("A", n)
    if len(branches) > 1:
        raise InternalError("two branch nodes in one Dynkin component")
    hub = branches[0]
    arms = []
    for start in adj[hub]:
        length = 1
        prev, cur = hub, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise InternalError("branch inside a Dynkin arm")
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise InternalError("Dynkin branch without a length-1 arm")
    if arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms[1] == 2 and arms[2] in (2, 3, 4):
        return ("E", arms[2] + 4)
    raise InternalError(f"arm lengths {arms} are not an ADE shape")


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
    simple, pairs = _simple_roots(l, roots)

    if not np.isin(pairs[~np.eye(len(simple), dtype=bool)], (0, -1)).all():
        raise InternalError("simple roots of an even lattice must "
                            "pair to 0 or -1")
    adj = {i: np.flatnonzero(row == -1).tolist() for i, row in enumerate(pairs)}

    components = []
    seen: set[int] = set()
    for start in range(len(simple)):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        queue = [start]
        while queue:
            v = queue.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        components.append(_classify_component(comp, adj))

    expected = 0
    for kind, rank in components:
        expected += (_EXPECTED_COUNTS[kind][rank] if kind == "E"
                     else _EXPECTED_COUNTS[kind](rank))
    if expected != len(roots):
        raise InternalError(f"components {components} predict {expected} "
                            f"roots, found {len(roots)}")
    return RootSystemReport(tuple(sorted(components)), len(roots))
