"""Primary decomposition and Jordan block data for odd primes.

Odd p-primary spaces split off rank-one blocks: a top-scale element x with
q(x) = 2c/p^k, p not dividing c, always exists among the top-order
generators and their pairwise sums, and projecting along x is exact because
b(x,x) is a unit multiple of 1/p^k.  The per-scale (rank, product of theta)
pairs returned are a complete isometry invariant; no normal form is
attempted at p = 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import InternalError, NotPrimaryError, ValidationError
from .space import FiniteQuadraticSpace, subquotient


@dataclass(frozen=True)
class JordanBlockSummary:
    """Aggregated cyclic blocks of scale p^k: their count and theta product."""

    p: int
    k: int
    rank: int
    theta: int


def _factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def primary_decomposition(s: FiniteQuadraticSpace) -> dict[int, FiniteQuadraticSpace]:
    """Split (A, q) into its p-primary parts; trivial space gives {}."""
    if s.order == 1:
        return {}
    primes = sorted(_factorize(s.order))
    orders = s.orders
    n = s.rank
    out: dict[int, FiniteQuadraticSpace] = {}
    for p in primes:
        gens = []
        for i, d in enumerate(orders):
            e = 0
            dd = d
            while dd % p == 0:
                dd //= p
                e += 1
            if e:
                # d/p^e times the generator has exact order p^e.
                gens.append(tuple((d // p ** e) if j == i else 0 for j in range(n)))
        out[p] = subquotient(s, gens)
    return out


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def jordan_blocks_odd(s: FiniteQuadraticSpace, p: int) -> list[JordanBlockSummary]:
    """Per-scale (rank, theta product) of the p-primary space s, p odd."""
    if p < 3 or p % 2 == 0 or any(p % f == 0 for f in range(3, int(math.isqrt(p)) + 1, 2)):
        raise ValidationError(f"{p} is not an odd prime")
    if any(d != p ** _factorize(d).get(p, 0) for d in s.orders):
        raise NotPrimaryError(f"space with orders {s.orders} is not {p}-primary")
    scales: dict[int, list[int]] = {}
    current = s
    while current.order > 1:
        # The level of a p-primary space, p odd, is its exponent p^k, and
        # pair(x, x) = 2c mod 2p^k when q(x) = 2c/p^k: x has the top scale
        # exactly when c is a unit mod p.
        orders, n, pk = current.orders, current.rank, current.level
        basis = current.generators()
        top_idx = [i for i, d in enumerate(orders) if d == pk]
        candidates = [basis[i] for i in top_idx]
        candidates += [tuple(basis[i][t] + basis[j][t] for t in range(n))
                       for ai, i in enumerate(top_idx) for j in top_idx[ai + 1:]]
        x = next((x for x in candidates if current.pair(x, x) // 2 % p), None)
        if x is None:
            raise InternalError("no top-scale element; degenerate form slipped through")
        c = current.pair(x, x) // 2 % pk
        scales.setdefault(_factorize(pk)[p], []).append(_jacobi(c, p))
        # Project every generator along x; b(x,x) = 2c/p^k is a unit there.
        inv = pow(2 * c, -1, pk)
        gens = []
        for i in range(n):
            lam = current.pair(basis[i], x) * inv % pk
            gens.append(tuple((basis[i][t] - lam * x[t]) % orders[t] for t in range(n)))
        current = subquotient(current, gens)
    return [JordanBlockSummary(p=p, k=k, rank=len(thetas), theta=math.prod(thetas))
            for k, thetas in sorted(scales.items())]


def jordan_decomposition(s: FiniteQuadraticSpace):
    """Per prime: odd p -> block summaries, p = 2 -> the raw 2-primary space."""
    parts = primary_decomposition(s)
    out: dict[int, object] = {}
    for p, part in sorted(parts.items()):
        out[p] = part if p == 2 else jordan_blocks_odd(part, p)
    return out
