"""The `Fraction` routines the lattice path used before it ran on integers,
kept as the oracle for the fraction-free kernel.

`rational_signature` is the symmetric congruence diagonalization over Q,
`int_inv_unimodular` and `row_lattice_basis` invert through the Gauss-Jordan
`rat_inv`, `present_subquotient` reads the rows of V^(-1) it needs off that
inverse, and `_lift_vector` sums the `Fraction` lift vectors of a
discriminant form.  `rational_lifts` rebuilds those lift vectors from the
integer columns that `genusforge.lattice.discform._disc_with_lifts` returns
now, and `overlattice_grams` is the old overlattice construction on them.
"""

from fractions import Fraction
from math import lcm
from typing import Sequence

from genusforge.errors import InternalError, ValidationError
from genusforge.exactkernel import integer_kernel, rat_inv, smith_normal_form


def int_inv_unimodular(matrix: Sequence[Sequence[int]]) -> tuple:
    """Inverse of a unimodular integer matrix, returned with int entries."""
    inv = rat_inv(matrix)
    out = []
    for row in inv:
        if any(x.denominator != 1 for x in row):
            raise ValidationError("matrix is not unimodular")
        out.append(tuple(int(x) for x in row))
    return tuple(out)


def row_lattice_basis(matrix: Sequence[Sequence[int]]) -> tuple:
    """Basis (as rows) of the lattice spanned by the rows over Z.

    With U A V = D, row operations preserve the row lattice, so the nonzero
    rows of U A = D V^(-1) are a basis: d_k times row k of V^(-1).
    """
    res = smith_normal_form(matrix)
    vinv = int_inv_unimodular(res.v)
    return tuple(tuple(d * x for x in vinv[k])
                 for k, d in enumerate(res.diagonal) if d != 0)


def rational_signature(matrix: Sequence[Sequence]) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Exact symmetric congruence diagonalization; when the whole remaining
    diagonal vanishes but the block is nonzero, the basis change
    e_i <- e_i + e_j manufactures a nonzero diagonal entry (valid away from
    characteristic 2).
    """
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in m):
        raise ValidationError("signature needs a square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if m[i][j] != m[j][i]:
                raise ValidationError("signature needs a symmetric matrix")
    pos = neg = zero = 0
    for i in range(n):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # e_i <- e_i + e_off gives diagonal entry 2*m[i][off].
                m[i] = [a + b for a, b in zip(m[i], m[off])]
                for row in m:
                    row[i] += row[off]
        d = m[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if m[j][i] != 0:
                f = m[j][i] / d
                m[j] = [a - f * b for a, b in zip(m[j], m[i])]
                for row in m:
                    row[j] -= f * row[i]
    return pos, neg, zero


def present_subquotient(orders: Sequence[int], gram: Sequence[Sequence[int]],
                        gen_vectors: Sequence[Sequence[int]],
                        rel_vectors: Sequence[Sequence[int]] = ()
                        ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Present span(gen_vectors)/span(rel_vectors) in invariant-factor form.

    Returns (new_orders, W G W^T), where row k of W is new generator k as
    an integer vector in the ambient coordinates.  The caller is
    responsible for the induced form being well defined (rel_vectors
    isotropic and orthogonal to the generators).
    """
    n = len(orders)
    m = len(gen_vectors)
    if m == 0 or n == 0:
        return (), ()
    # Relation lattice: a in Z^m with sum a_i v_i in span(rels) + diag(orders).
    cols: list[list[int]] = []
    for v in gen_vectors:
        cols.append(list(v))
    for r in rel_vectors:
        cols.append(list(r))
    for k in range(n):
        cols.append([orders[k] if i == k else 0 for i in range(n)])
    stacked = tuple(tuple(col[i] for col in cols) for i in range(n))
    kernel = integer_kernel(stacked)
    relations = [vec[:m] for vec in kernel]
    if not relations:
        relations = [[0] * m]
    res = smith_normal_form(tuple(tuple(r) for r in relations))
    rank = res.rank
    if rank < m:
        raise InternalError("subgroup presentation is not finite")
    v_inv = int_inv_unimodular(res.v)
    new_orders: list[int] = []
    w: list[list[int]] = []
    for k in range(m):
        d = res.d[k][k]
        if d == 1:
            continue
        combo = v_inv[k]
        vec = [0] * n
        for j in range(m):
            if combo[j]:
                for t in range(n):
                    vec[t] += combo[j] * gen_vectors[j][t]
        new_orders.append(d)
        w.append([vec[t] % orders[t] for t in range(n)])
    wg = [[sum(a * row[t] for a, row in zip(x, gram)) for t in range(n)] for x in w]
    return (tuple(new_orders),
            tuple(tuple(sum(a * b for a, b in zip(x, y)) for y in w) for x in wg))


def _lift_vector(lifts, coords) -> tuple[Fraction, ...]:
    n = len(lifts[0]) if lifts else 0
    out = [Fraction(0)] * n
    for a, vec in zip(coords, lifts):
        for r in range(n):
            out[r] += a * vec[r]
    return tuple(out)


def rational_lifts(columns, orders) -> list[tuple[Fraction, ...]]:
    """The `Fraction` lift vectors v_i / d_i of integer lifts v_i of order d_i."""
    return [tuple(Fraction(x, d) for x in v) for v, d in zip(columns, orders)]


def overlattice_grams(l, lifts, subgroups) -> list[tuple[tuple[int, ...], ...]]:
    """Gram matrices of the overlattices of l by the given subgroups, built
    from `Fraction` lifts with the `rat_inv` row basis."""
    n = l.rank
    gram = l.gram
    out = []
    for c in subgroups:
        gen_lifts = [_lift_vector(lifts, g) for g in c.generators]
        t = lcm(1, *(x.denominator for vec in gen_lifts for x in vec))
        rows = [[t if r == s else 0 for s in range(n)] for r in range(n)]
        rows.extend([int(x * t) for x in vec] for vec in gen_lifts)
        basis = row_lattice_basis(rows)
        new_gram = [[0] * n for _ in range(n)]
        for i in range(n):
            bi_g = [sum(basis[i][r] * gram[r][s] for r in range(n)) for s in range(n)]
            for j in range(n):
                num = sum(bi_g[s] * basis[j][s] for s in range(n))
                if num % (t * t):
                    raise InternalError("overlattice Gram entry not integral")
                new_gram[i][j] = num // (t * t)
        out.append(tuple(tuple(row) for row in new_gram))
    return out
