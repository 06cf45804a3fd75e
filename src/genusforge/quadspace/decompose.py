"""Primary decomposition, Jordan splitting at every prime, and the
signature mod 8.

The p-primary part of a space is generated by the vectors (d_i/p^e_i) e_i
in the space's own coordinates.  `_jordan_split` splits it into
orthogonal blocks without re-presenting it.  Let p^k be the largest
order among the current vectors.  On vectors of order at most p^k the
pairing scaled by p^k, beta(x, y) = x^T G y p^k / N, is an exact
integer with b(x, y) = beta(x, y)/p^k mod 1, and rho(x) = beta(x, x) mod
2p^k gives q(x) = rho(x)/p^k mod 2.  A block is:

- p odd: one vector x of order p^k with beta(x, x) a unit mod p, taken
  among the top-order vectors and their pairwise sums (nondegeneracy
  guarantees one: if no top-order v has a unit beta(v, v), some pair has
  beta(v, w) a unit, and then v + w does);
- p = 2: one top-order vector x with beta(x, x) odd; or else, when every
  beta(x, x) is even, two top-order vectors u, w with beta(u, w) odd
  (nondegeneracy gives a w for any top-order u).  The pair spans U
  (rho(u) or rho(w) divisible by 4) or V (both 2 mod 4).

The block's beta matrix M has a unit determinant mod p, so every vector
v projects onto the block's orthogonal complement as v - sum_j lambda_j
a_j with lambda = M^(-1) (beta(v, a_j)) mod p^k.  The projected vectors
generate the complement, which is nondegenerate again.

The Gauss sum is multiplicative over orthogonal blocks, and each block's
phase in eighths of a turn is read off (k, rho): Z/p^k with q = 2c/p^k
gives 0 for k even and 2[p = 3 mod 4] + 4[(c/p) = -1] for k odd; Z/2^k
with q = t/2^k gives t + 4[k odd and t = +-3 mod 8]; U gives 0 and V
gives 4[k odd] (Conway & Sloane, SPLAG ch. 15 sec. 7).  By Milgram's
formula their sum mod 8 is the signature, with no element enumerated.
For p odd, the per-scale (rank, product of (c/p)) pairs are a complete
isometry invariant; no normal form is attempted at p = 2.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Iterator

from ..errors import InternalError, NotPrimaryError, ValidationError
from ..exactkernel.intmatrix import _factorize
from .space import FiniteQuadraticSpace, subquotient

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class JordanBlockSummary:
    """Aggregated cyclic blocks of scale p^k: their count and theta product."""

    p: int
    k: int
    rank: int
    theta: int


def _primary_generators(s: FiniteQuadraticSpace, p: int) -> list[tuple[int, ...]]:
    """(d_i/p^e_i) e_i for every generator of order divisible by p: each has
    exact order p^e_i, and together they generate the p-primary part."""
    n = s.rank
    out = []
    for i, d in enumerate(s.orders):
        pe = p ** _factorize(d).get(p, 0)
        if pe > 1:
            out.append(tuple(d // pe if j == i else 0 for j in range(n)))
    return out


def primary_decomposition(s: FiniteQuadraticSpace) -> dict[int, FiniteQuadraticSpace]:
    """Split (A, q) into its p-primary parts; trivial space gives {}."""
    return {p: subquotient(s, _primary_generators(s, p)) for p in sorted(_factorize(s.order))}


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


def _jordan_split(s: FiniteQuadraticSpace, p: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Orthogonal blocks of the p-primary part of s, as (k, rhos): the
    block has scale p^k and rhos holds rho of its one or two basis vectors."""
    orders, gram, level, n = s.orders, s.gram, s.level, s.rank

    def image(x):  # G x, so that beta(v, x) = v . image(x) p^k / N
        return [sum(g * xt for g, xt in zip(row, x) if xt) for row in gram]

    vecs = _primary_generators(s, p)
    while vecs:
        ords = [max(d // math.gcd(d, x) for x, d in zip(v, orders) if x) for v in vecs]
        pk = max(ords)
        top = [v for v, o in zip(vecs, ords) if o == pk]

        def beta(v, gx):  # exact, as v and x have order at most p^k
            return sum(vt * y for vt, y in zip(v, gx) if vt) * pk // level

        if p > 2:
            pairs = (tuple(u[t] + w[t] for t in range(n))
                     for a, u in enumerate(top) for w in top[a + 1:])
            block = next(([x] for x in itertools.chain(top, pairs)
                          if beta(x, image(x)) % p), None)
        else:
            block = next(([x] for x in top if beta(x, image(x)) % 2), None)
            if block is None:
                gu = image(top[0])
                block = next(([top[0], w] for w in top[1:] if beta(w, gu) % 2), None)
        if block is None:
            raise InternalError("no top-scale block; degenerate form slipped through")
        images = [image(a) for a in block]
        m = [[beta(a, g) for g in images] for a in block]
        if len(block) == 1:
            minv = [[pow(m[0][0], -1, pk)]]
        else:
            u = pow(m[0][0] * m[1][1] - m[0][1] * m[1][0], -1, pk)
            minv = [[m[1][1] * u, -m[0][1] * u], [-m[1][0] * u, m[0][0] * u]]
        projected = []
        for v in vecs:
            bv = [beta(v, g) for g in images]
            lam = [sum(r * b for r, b in zip(row, bv)) % pk for row in minv]
            if any(lam):
                v = tuple((v[t] - sum(c * a[t] for c, a in zip(lam, block))) % d
                          for t, d in enumerate(orders))
            if any(v):
                projected.append(v)
        vecs = projected
        yield _factorize(pk)[p], tuple(m[j][j] % (2 * pk) for j in range(len(block)))


def _block_phase(p: int, k: int, rhos: tuple[int, ...]) -> int:
    """Phase of one block's Gauss sum, in eighths of a turn."""
    if p > 2:
        return k % 2 * (2 * (p % 4 == 3) + 4 * (_jacobi(rhos[0] // 2, p) < 0))
    if len(rhos) == 1:
        t = rhos[0]
        return t + 4 * (k % 2 == 1 and t % 8 in (3, 5))
    return 4 * (k % 2 == 1 and all(r % 4 == 2 for r in rhos))


def signature_mod8(s: FiniteQuadraticSpace) -> int:
    """The signature mod 8, from the Jordan splitting at every prime."""
    total = 0
    blocks: dict[int, int] = {}
    for p in sorted(_factorize(s.order)):
        for k, rhos in _jordan_split(s, p):
            total += _block_phase(p, k, rhos)
            blocks[p] = blocks.get(p, 0) + 1
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("signature mod 8 of |A| = %d: Jordan splitting, blocks per prime %s",
                   s.order, blocks)
    return total % 8


def jordan_blocks_odd(s: FiniteQuadraticSpace, p: int) -> list[JordanBlockSummary]:
    """Per-scale (rank, theta product) of the p-primary space s, p odd."""
    if p < 3 or _factorize(p) != {p: 1}:
        raise ValidationError(f"{p} is not an odd prime")
    if any(d != p ** _factorize(d).get(p, 0) for d in s.orders):
        raise NotPrimaryError(f"space with orders {s.orders} is not {p}-primary")
    # rho(x) = 2c mod 2p^k for the block x, and theta is (c/p).
    scales: dict[int, list[int]] = {}
    for k, (rho,) in _jordan_split(s, p):
        scales.setdefault(k, []).append(_jacobi(rho // 2, p))
    return [JordanBlockSummary(p=p, k=k, rank=len(thetas), theta=math.prod(thetas))
            for k, thetas in sorted(scales.items())]
