"""The Fraction evaluator of finite quadratic spaces, kept as the oracle for
the integer encoding.

It reads only the public generator values `q_gen` and `b_matrix` and
expands, element by element in rational arithmetic,

    q(x) = sum_i x_i^2 q_i + 2 sum_{i<j} x_i x_j b_ij  mod 2,
    b(x, y) = sum_ij x_i y_j b_ij  mod 1.
"""

from fractions import Fraction
from math import gcd, lcm

from genusforge.quadspace import build_space


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
