"""Reference computations made apart from genusforge.

Nothing here imports the library.  Each function recomputes a quantity
the benchmark checks, by a route the library does not take: floating
point Gauss sums, group addition, Eisenstein series, brute-force bitmask
enumeration, closed forms, an orbit count and the Krawtchouk transform.

Run `python3 bench/refs.py` to print the counts that are quoted as
closed forms or stored anywhere in the benchmark, each recomputed here.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np


# --- finite quadratic spaces given as (orders, q on generators, b matrix) ---

def _integer_form(q, b):
    """(N, M) with M an integer matrix such that q(x) = x.M.x / N mod 2
    and b(x, y) = x.M.y / N mod 1."""
    fr = [Fraction(v) for v in q] + [Fraction(v) for row in b for v in row]
    den = 1
    for v in fr:
        den = math.lcm(den, v.denominator)
    n = len(q)
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            v = Fraction(q[i]) if i == j else Fraction(b[i][j])
            m[i, j] = int(v * den)
    return den, m


def element_grid(orders) -> np.ndarray:
    """All elements of Z/d_1 x ... x Z/d_n, last coordinate fastest."""
    if not orders:
        return np.zeros((1, 0), dtype=np.int64)
    axes = np.meshgrid(*[np.arange(d, dtype=np.int64) for d in orders], indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=1)


def q_numerators(orders, q, b) -> tuple[int, np.ndarray]:
    """(N, v) with q(x_t) = v[t] / N mod 2 for the t-th element of the grid."""
    den, m = _integer_form(q, b)
    x = element_grid(orders)
    return den, np.einsum("ti,ij,tj->t", x, m, x) % (2 * den)


def gauss_sum(orders, q, b) -> complex:
    """sum_x exp(pi i q(x)) in floating point."""
    den, v = q_numerators(orders, q, b)
    return complex(np.exp(1j * np.pi * v.astype(np.float64) / den).sum())


def signature_mod8(orders, q, b) -> int:
    """Milgram: G = sqrt|A| exp(2 pi i sig / 8).  Raises ValueError when the
    float sum is not of that shape, i.e. the form is degenerate."""
    order = math.prod(orders)
    g = gauss_sum(orders, q, b)
    if abs(abs(g) ** 2 - order) > 1e-6 * order:
        raise ValueError(f"|G|^2 = {abs(g) ** 2:.6f}, expected |A| = {order}")
    eighths = cmath.phase(g) / (2 * math.pi) * 8
    k = round(eighths)
    if abs(eighths - k) > 1e-6:
        raise ValueError(f"Gauss sum phase {eighths:.6f}/8 is not a multiple of 1/8")
    return k % 8


def bilinear(b, x, y) -> Fraction:
    """b(x, y) mod 1 from the generator matrix (diagonal included)."""
    return sum((Fraction(b[i][j]) * x[i] * y[j]
                for i in range(len(x)) for j in range(len(y))), Fraction(0)) % 1


def quadratic(q, b, x) -> Fraction:
    """q(x) mod 2 from q on generators and b off the diagonal."""
    n = len(x)
    total = sum((Fraction(q[i]) * x[i] * x[i] for i in range(n)), Fraction(0))
    total += 2 * sum((Fraction(b[i][j]) * x[i] * x[j]
                      for i in range(n) for j in range(i + 1, n)), Fraction(0))
    return total % 2


def element_index(orders, x) -> int:
    """Position of x in element_grid(orders)."""
    idx = 0
    for c, d in zip(x, orders):
        idx = idx * d + (c % d)
    return idx


def group_ring_fusion(orders) -> np.ndarray:
    """N[i, j, k] = 1 exactly when element_i + element_j = element_k."""
    x = element_grid(orders)
    n = len(x)
    total = (x[:, None, :] + x[None, :, :]) % np.asarray(orders, dtype=np.int64)
    idx = np.zeros((n, n), dtype=np.int64)
    for c, d in zip(np.moveaxis(total, 2, 0), orders):
        idx = idx * d + c
    table = np.zeros((n, n, n), dtype=np.int64)
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    table[i, j, idx] = 1
    return table


def span_size(orders, gens) -> int:
    """Order of the subgroup generated by gens, by closure."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    frontier = [zero]
    gens = [tuple(g) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + c) % d for a, c, d in zip(x, g, orders))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return len(seen)


def is_isometry_witness(space1, space2, images) -> bool:
    """Whether sending generator i of space1 to images[i] is an isometry onto
    space2.  Spaces are (orders, q, b) triples."""
    o1, q1, b1 = space1
    o2, q2, b2 = space2
    if math.prod(o1) != math.prod(o2) or len(images) != len(o1):
        return False
    gens = [tuple(1 if j == i else 0 for j in range(len(o1))) for i in range(len(o1))]
    for i, y in enumerate(images):
        if any((o1[i] * c) % d for c, d in zip(y, o2)):
            return False  # o1[i] * y != 0, so the map is not well defined
        if quadratic(q2, b2, y) != quadratic(q1, b1, gens[i]):
            return False
        for j in range(i):
            if bilinear(b2, y, images[j]) != bilinear(b1, gens[i], gens[j]):
                return False
    return span_size(o2, images) == math.prod(o2)


def doubly_even_code_count(n: int) -> int:
    """Binary codes of length n with every weight divisible by 4, trivial
    code included; these are the isotropic subgroups of disc(A1^n)."""
    de_words = [w for w in range(1, 1 << n) if w.bit_count() % 4 == 0]
    level = {frozenset([0])}
    total = 1
    while level:
        nxt = set()
        for code in level:
            for w in de_words:
                if w in code or any((w & c).bit_count() % 2 for c in code):
                    continue
                nxt.add(code | {w ^ c for c in code})
        total += len(nxt)
        level = nxt
    return total


# --- lattices -----------------------------------------------------------------

def det_int(rows) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1] if n else 1


def inverse_fractions(rows) -> list[list[Fraction]]:
    """Exact inverse by Gauss-Jordan elimination over Q."""
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def discriminant_group(gram):
    """Elements of L*/L as vectors of Q^n/Z^n in the basis of L, found by
    closing the columns of G^-1 under addition mod 1."""
    n = len(gram)
    inv = inverse_fractions(gram)
    gens = [tuple(inv[r][c] % 1 for r in range(n)) for c in range(n)]
    zero = tuple(Fraction(0) for _ in range(n))
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((a + c) % 1 for a, c in zip(x, g))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def lattice_pairing(gram, x, y) -> Fraction:
    return sum((x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y))
                if x[i] and y[j]), Fraction(0))


def isotropic_count_from_gram(gram) -> int:
    """Isotropic subgroups of (L*/L, x.G.x mod 2), trivial one included,
    by closing sets of isotropic classes; for small discriminants."""
    elems = discriminant_group(gram)
    zero = elems[0]
    iso = [x for x in elems if x != zero and lattice_pairing(gram, x, x) % 2 == 0]
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        base = frontier.pop()
        for v in iso:
            if v in base or any(lattice_pairing(gram, v, c) % 1 for c in base):
                continue
            grown = set(base)
            step = v
            while step != zero:
                grown |= {tuple((a + s) % 1 for a, s in zip(c, step)) for c in base}
                step = tuple((s + t) % 1 for s, t in zip(step, v))
            grown = frozenset(grown)
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return len(found)


def divisor_power_sum(m: int, power: int) -> int:
    return sum(d ** power for d in range(1, m + 1) if m % d == 0)


def e8_theta(k: int) -> tuple[int, ...]:
    """Theta series of E8 to q^k: the Eisenstein series E4 = 1 + 240 sigma_3."""
    return (1,) + tuple(240 * divisor_power_sum(m, 3) for m in range(1, k + 1))


def unimodular16_theta(k: int) -> tuple[int, ...]:
    """Theta series of either even unimodular lattice of rank 16: E8 = 1 + 480 sigma_7."""
    return (1,) + tuple(480 * divisor_power_sum(m, 7) for m in range(1, k + 1))


ROOT_COUNTS = {"A": lambda n: n * (n + 1), "D": lambda n: 2 * n * (n - 1),
               "E": lambda n: {6: 72, 7: 126, 8: 240}[n]}


def root_count(components) -> int:
    return sum(ROOT_COUNTS[kind](rank) for kind, rank in components)


# --- binary codes ----------------------------------------------------------------

def popcount_table(bits: int = 16) -> np.ndarray:
    lut = np.zeros(1 << bits, dtype=np.int64)
    for i in range(bits):
        lut[1 << i: 1 << (i + 1)] = lut[: 1 << i] + 1
    return lut


def span_words(rows) -> list[int]:
    words = [0]
    for r in rows:
        words += [w ^ r for w in words]
    return words


def sigma_by_spans(r: int, k: int) -> int:
    """sigma_k(r) by listing spans: k-dimensional codes through the
    all-ones word with every weight in 8Z.  Meant for r <= 12."""
    ones = (1 << r) - 1
    if r % 8:
        return 0
    if k == 1:
        return 1
    good = [w for w in range(1, ones) if w.bit_count() % 8 == 0]
    codes = {frozenset([0, ones])}
    for _ in range(k - 1):
        grown = set()
        for c in codes:
            for w in good:
                if w in c:
                    continue
                new = c | {w ^ x for x in c}
                if all(x.bit_count() % 8 == 0 for x in new):
                    grown.add(frozenset(new))
        codes = grown
    return len(codes)


def sigma_closed_forms() -> dict[tuple[int, int], int]:
    """sigma_2(16) = C(16,8)/2: {0, 1, v, v+1} with wt v = 8, two v per code.
    sigma_3(16) = 16!/4!^5: the S_16 orbit of the code spanned by 1 and two
    octads meeting in 4 points.  sigma_2(24) = C(24,8): wt v in {8, 16}."""
    return {(16, 2): math.comb(16, 8) // 2,
            (16, 3): math.factorial(16) // math.factorial(4) ** 5,
            (24, 2): math.comb(24, 8)}


def sigma4_16() -> int:
    """sigma_4(16) by an orbit count, apart from codes.sigma.

    A 4-dimensional 8-divisible code through 1 of length 16 is 1 plus a
    3-dimensional space of classes mod 1 whose words all have weight 8;
    words a, b of weight 8 sum to weight 8 exactly when |a & b| = 4.
    S_16 is transitive on weight-8 words, so fix a = 0x00FF, count ordered
    pairs (b, c) of classes completing a basis, multiply by the C(16,8)/2
    classes of a and divide by |GL(3, 2)| = 168 ordered bases per space.
    """
    lut = popcount_table(16)
    words = np.arange(1 << 16, dtype=np.int64)
    w8 = words[lut == 8]
    a = 0x00FF
    meets_a = w8[lut[w8 & a] == 4]
    b_classes = meets_a[(meets_a >> 15) == 0]
    ordered = 0
    for b in b_classes:
        c = meets_a
        ok = (lut[c & int(b)] == 4) & (lut[c & (a ^ int(b))] == 4)
        ordered += int(np.count_nonzero(ok)) // 2
    total = (math.comb(16, 8) // 2) * ordered
    if total % 168:
        raise ArithmeticError("ordered bases do not split into GL(3,2) orbits")
    return total // 168


def dual_basis(rows, n: int) -> list[int]:
    """Basis of the words orthogonal to every row, by Gaussian elimination."""
    pivots: dict[int, int] = {}
    for r in rows:
        for p, b in pivots.items():
            if r >> p & 1:
                r ^= b
        if r:
            p = (r & -r).bit_length() - 1
            for q in list(pivots):
                if pivots[q] >> p & 1:
                    pivots[q] ^= r
            pivots[p] = r
    out = []
    for f in range(n):
        if f in pivots:
            continue
        word = 1 << f
        for p, b in pivots.items():
            if b >> f & 1:
                word |= 1 << p
        out.append(word)
    return out


def code_weights(rows, n: int) -> list[int]:
    """Weight distribution, enumerating whichever of the code and its dual
    is smaller."""
    if len(rows) <= n - len(rows):
        return weight_distribution(rows, n)
    return macwilliams(weight_distribution(dual_basis(rows, n), n), n)


def krawtchouk(n: int, j: int, i: int) -> int:
    return sum((-1) ** l * math.comb(i, l) * math.comb(n - i, j - l) for l in range(j + 1))


def macwilliams(weights, n: int) -> list[int]:
    """Weight distribution of the dual code: (1/|C|) sum_i W_i K_j(i)."""
    size = sum(weights)
    out = []
    for j in range(n + 1):
        acc = sum(w * krawtchouk(n, j, i) for i, w in enumerate(weights) if w)
        if acc % size:
            raise ValueError("MacWilliams transform is not integral: not a linear code")
        out.append(acc // size)
    return out


def weight_distribution(rows, n: int) -> list[int]:
    w = [0] * (n + 1)
    for word in span_words(rows):
        w[word.bit_count()] += 1
    return w


GOLAY_WEIGHTS = {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}


def rank_f2(rows) -> int:
    by_top: dict[int, int] = {}
    for r in rows:
        while r:
            top = r.bit_length() - 1
            if top not in by_top:
                by_top[top] = r
                break
            r ^= by_top[top]
    return len(by_top)


def orthogonal(rows_a, rows_b) -> bool:
    return all((a & b).bit_count() % 2 == 0 for a in rows_a for b in rows_b)


def in_span(word: int, rows) -> bool:
    return rank_f2(list(rows) + [word]) == rank_f2(rows)


def permute_word(word: int, perm) -> int:
    """Move coordinate i to coordinate perm[i]."""
    out = 0
    for i, p in enumerate(perm):
        if word >> i & 1:
            out |= 1 << p
    return out


if __name__ == "__main__":
    print("sigma_k closed forms:", sigma_closed_forms())
    print("sigma_4(16) by orbit count:", sigma4_16())
    print("doubly-even codes of length 6 and 8:", doubly_even_code_count(6),
          doubly_even_code_count(8))
    print("E8 and rank-16 theta to q^3:", e8_theta(3), unimodular16_theta(3))
