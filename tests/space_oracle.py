"""The Fraction evaluator of finite quadratic spaces, kept as the oracle for
the integer encoding.

It reads only the public generator values `q_gen` and `b_matrix` and
expands, element by element in rational arithmetic,

    q(x) = sum_i x_i^2 q_i + 2 sum_{i<j} x_i x_j b_ij  mod 2,
    b(x, y) = sum_ij x_i y_j b_ij  mod 1.

Below it, the Python-set subgroup search (`closure`, `minimal_chain`,
`isotropic_subgroups`, `is_isometric`) that the element-index spans of
`genusforge.quadspace` replaced, kept verbatim as their oracle, the
`Fraction` route of `jordan_blocks_odd`, the Gauss-sum route of
`signature_mod8` that the Jordan splitting replaced, and `element_table`
and `radix`, the per-space element arrays as each space built them before
spaces on one group shared them.
"""

import math
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

import numpy as np

from genusforge.errors import InternalError, LimitError, NotPrimaryError, ValidationError
from genusforge.exactkernel import gauss_phase
from genusforge.quadspace import FiniteQuadraticSpace, JordanBlockSummary, Subgroup, build_space
from genusforge.exactkernel.intmatrix import _factorize
from genusforge.quadspace.decompose import _jacobi
from genusforge.quadspace.space import subquotient


def oracle_q(s, x):
    q = [p.value for p in s.q_gen]
    b = [[p.value for p in row] for row in s.b_matrix]
    total = Fraction(0)
    n = len(q)
    for i in range(n):
        if x[i]:
            total += x[i] * x[i] * q[i]
            for j in range(i + 1, n):
                if x[j]:
                    total += 2 * x[i] * x[j] * b[i][j]
    return total % 2


def oracle_b(s, x, y):
    total = Fraction(0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            total += xi * yj * s.b_matrix[i][j].value
    return total % 1


def pair(s, x, y):
    """x^T G y on the integer Gram of s: b(x, y) is this over the level
    mod 1, and q(x) is pair(s, x, x) over the level mod 2."""
    return sum(xi * gij * yj for xi, row in zip(x, s.gram) if xi
               for gij, yj in zip(row, y) if yj)


def oracle_phase_counts(s):
    """(M, counts): counts[k] elements x with q(x)/2 = k/M mod 1."""
    halves = [oracle_q(s, x) / 2 for x in s.elements()]
    m = lcm(*(h.denominator for h in halves))
    counts = [0] * m
    for h in halves:
        counts[h.numerator * (m // h.denominator)] += 1
    return m, counts


def oracle_twists_and_dual(s):
    """Twists q(x)/2 mod 1 and the label of -x, labels in element order."""
    elems = list(s.elements())
    index = {x: i for i, x in enumerate(elems)}
    return ([oracle_q(s, x) / 2 for x in elems],
            [index[s.group.neg(x)] for x in elems])


def basis_change(s, rng):
    """s presented on new generators w_j = u_j e_j + sum_{i<j} c_ij e_i, u_j a
    unit mod d_j, with values from the oracle.  With d_1 | d_2 | ... this is
    an automorphism of A; returns (space, w)."""
    n = s.rank
    w = []
    for j, d in enumerate(s.orders):
        row = [rng.randrange(s.orders[i]) if i < j else 0 for i in range(n)]
        row[j] = rng.choice([u for u in range(1, d) if gcd(u, d) == 1])
        w.append(row)
    t = build_space(s.orders, [oracle_q(s, r) for r in w],
                    [[oracle_b(s, r, c) for c in w] for r in w])
    return t, w


def image(s, w, x):
    """sum_j x_j w_j, reduced in s."""
    return s.group.reduce([sum(xj * r[i] for xj, r in zip(x, w)) for i in range(s.rank)])


Coords = tuple[int, ...]


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
            if any(pair(s, v, g) % s.level for g in chain):
                continue
            child = closure(s, list(chain) + [v])
            # Canonical chains increase, so the child is new exactly when its
            # own chain would extend ours by v.
            if min(x for x in child if x not in elts) == v:
                stack.append((child, chain + (v,)))
    results.sort(key=lambda sub: (sub.order, sub.elements))
    return results


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
            if any(pair(s2, y, images[j]) % level != want[j] for j in range(i)):
                continue
            images.append(y)
            if len(closure(s2, images)) == sizes[i] and extend(i + 1):
                return True
            images.pop()
        return False

    if extend(0):
        return tuple(images)
    return None


# The Fraction route of `jordan_blocks_odd`: q and b evaluated by
# `oracle_q` and `oracle_b` and rescaled to p^k, kept as the oracle for the
# integer numerators the library reads.

def _p_scale(value: Fraction, p: int) -> tuple[int, int]:
    """(k, c) with value = 2c/p^k mod 2, p odd, gcd(c, p) = 1; k = 0 if value = 0."""
    if value == 0:
        return 0, 1
    den = value.denominator
    k = 0
    while den % p == 0:
        den //= p
        k += 1
    if den != 1:
        raise InternalError(f"q-value {value} is not p-adic for p = {p}")
    pk = p ** k
    inv2 = (pk + 1) // 2
    c = (value.numerator * (pk // value.denominator) * inv2) % pk
    return k, c


def jordan_blocks_odd(s: FiniteQuadraticSpace, p: int) -> list[JordanBlockSummary]:
    """Per-scale (rank, theta product) of the p-primary space s, p odd."""
    if p < 3 or p % 2 == 0 or any(p % f == 0 for f in range(3, int(math.isqrt(p)) + 1, 2)):
        raise ValidationError(f"{p} is not an odd prime")
    if any(d != p ** _factorize(d).get(p, 0) for d in s.orders):
        raise NotPrimaryError(f"space with orders {s.orders} is not {p}-primary")
    scales: dict[int, list[int]] = {}
    current = s
    while current.order > 1:
        orders = current.orders
        n = current.rank
        top = max(orders)
        k_top = _factorize(top)[p]
        top_idx = [i for i, d in enumerate(orders) if d == top]
        basis = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        x = None
        candidates = [basis[i] for i in top_idx]
        candidates += [tuple(basis[i][t] + basis[j][t] for t in range(n))
                       for ai, i in enumerate(top_idx) for j in top_idx[ai + 1:]]
        for cand in candidates:
            k, c = _p_scale(oracle_q(current, cand), p)
            if k == k_top:
                x = cand
                break
        if x is None:
            raise InternalError("no top-scale element; degenerate form slipped through")
        scales.setdefault(k_top, []).append(_jacobi(c, p))
        # Project every generator along x; b(x,x) = 2c/p^k is a unit there.
        pk = p ** k_top
        bxx_num = (2 * c) % pk
        inv = pow(bxx_num, -1, pk)
        gens = []
        for i in range(n):
            bi = oracle_b(current, basis[i], x)
            u = (bi.numerator * (pk // bi.denominator)) % pk
            lam = (u * inv) % pk
            gens.append(tuple((basis[i][t] - lam * x[t]) % orders[t] for t in range(n)))
        current = subquotient(current, gens)
    return [JordanBlockSummary(p=p, k=k, rank=len(thetas), theta=math.prod(thetas))
            for k, thetas in sorted(scales.items())]


# The Gauss-sum route of `signature_mod8`: bin q over the element table,
# square the counts in integers to pin the phase mod 4, and settle the sign
# with one integer sum compared with its proven error.  Kept as the oracle
# for the Jordan splitting the library reads the signature from; it reads
# the integer phase t of G = sqrt|A| zeta_(4m)^t, so sig = 8t/(4m).

def _phase_counts(s: FiniteQuadraticSpace) -> tuple[int, np.ndarray]:
    """Counts of exp(2 pi i k/M) terms in G, indexed by k."""
    two_n = 2 * s.level
    q = s.table.q
    m = two_n // math.gcd(two_n, int(np.gcd.reduce(q)))
    return m, np.bincount(q // (two_n // m), minlength=m)


def signature_mod8(s: FiniteQuadraticSpace) -> int:
    if s.order == 1:
        return 0
    m, counts = _phase_counts(s)
    phase = gauss_phase(m, counts, s.order)  # G = sqrt|A| zeta_(4m)^phase
    if phase is None or 2 * phase % m:
        raise InternalError(
            "Gauss sum squared is not |A| times a fourth root of unity; "
            "the form must be degenerate")
    return 2 * phase // m


# The element table and radix as each space built them for itself.

def element_table(s: FiniteQuadraticSpace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coords, q, order), one row per element in `elements()` order."""
    orders = np.array(s.orders, dtype=np.int64)
    coords = np.indices(s.orders, dtype=np.int64).reshape(s.rank, s.order).T
    two_n = 2 * s.level
    q = ((coords @ s.gram_array) % two_n * coords).sum(axis=1) % two_n
    order = np.lcm.reduce(orders // np.gcd(coords, orders), axis=1, initial=1)
    return coords, q, order


def radix(s: FiniteQuadraticSpace) -> np.ndarray:
    return np.array([math.prod(s.orders[i + 1:]) for i in range(s.rank)], dtype=np.int64)


def assert_tables_match(s: FiniteQuadraticSpace) -> None:
    """The table, radix and orders array of s equal the per-space ones."""
    coords, q, order = element_table(s)
    t = s.table
    assert np.array_equal(t.coords, coords) and t.coords.shape == coords.shape
    assert np.array_equal(t.q, q) and np.array_equal(t.order, order)
    assert np.array_equal(s.radix, radix(s))
    assert np.array_equal(s.orders_array, np.array(s.orders, dtype=np.int64))
    assert {a.dtype for a in (*t, s.radix, s.orders_array)} == {np.dtype(np.int64)}
