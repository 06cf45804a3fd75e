"""The `Fraction` routines the lattice path used before it ran on integers,
kept as the oracle for the fraction-free kernel.

`smith_normal_form` is the Smith normal form that always records both
transforms and the full diagonal matrix, the reference for the one-sided
transforms of `genusforge.exactkernel.smith_normal_form`.
`one_sided_smith_normal_form` is that function as it ran before its
one-pass rewrite, one closure per row and column operation, kept verbatim
as the byte-for-byte oracle for its D, U and V.
`rational_signature` is the symmetric congruence diagonalization over Q
and `fraction_det` the row-pivoting determinant over Q, the references for
the determinant and signature of `genusforge.lattice.EvenLattice`, and
`unpivoted_elimination` is its Bareiss elimination as it ran before it
learned to pivot past a vanishing minor.
`int_inv_unimodular` and `row_lattice_basis` invert through the Gauss-Jordan
`rat_inv`, `present_subquotient` reads the rows of V^(-1) it needs off that
inverse, and `_lift_vector` sums the `Fraction` lift vectors of a
discriminant form.  `rational_lifts` rebuilds those lift vectors from the
integer columns that `genusforge.lattice.discform._disc_with_lifts` returns
now, and `overlattice_grams` is the old overlattice construction on them.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from genusforge.errors import InternalError, ValidationError
from genusforge.exactkernel import IntMatrix, freeze, identity, integer_kernel, transpose
from genusforge.exactkernel.intmatrix import SnfResult as KernelSnfResult, _require_ints


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    `d` holds the full (rows x cols) diagonal matrix; `diagonal` just the
    min(rows, cols) diagonal entries, nonnegative with d1 | d2 | ... .
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> SnfResult:
    """Smith normal form with both unimodular transforms.

    Row operations act on U from the left, column operations on V from the
    right, keeping U @ A @ V equal to the working matrix throughout.  V is
    built transposed, so a column operation on V is a row operation on the
    list of its columns.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(len(row) != cols for row in matrix):
        raise ValidationError("ragged matrix")
    _require_ints(matrix, "Smith normal form")
    m = [list(row) for row in matrix]
    u = identity(rows)
    vt = identity(cols)

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        # Rows above t are zero outside the diagonal.
        for r in range(t, rows):
            row = m[r]
            row[i], row[j] = row[j], row[i]
        vt[i], vt[j] = vt[j], vt[i]

    t = 0
    while t < min(rows, cols):
        # Smallest nonzero pivot keeps intermediate entries from exploding;
        # ties go to the first in row-major order, so a 1 ends the search.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(m[i][j])
                if a and (best is None or a < best):
                    best, pivot = a, (i, j)
                    if a == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            p = m[t][t]
            # Reduce column t; any leftover remainder is a smaller pivot.
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    row_op(i, t, m[i][t] // p)
            moved = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    swap_rows(t, i)
                    moved = True
                    break
            if moved:
                continue
            # col_j -= q * col_t; column t is zero off the diagonal here, so
            # in the working matrix only row t changes.
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    m[t][j] -= q * p
                    vt[j] = [a - q * b for a, b in zip(vt[j], vt[t])]
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    swap_cols(t, j)
                    moved = True
                    break
            if moved:
                continue
            # The pivot must divide the whole remaining block or later
            # diagonal entries break the chain; folding an offending row
            # into row t shrinks the pivot and the loop retries.
            bad = None if abs(p) == 1 else next(
                (i for i in range(t + 1, rows) if any(x % p for x in m[i][t + 1:])), None)
            if bad is not None:
                row_op(t, bad, -1)
                continue
            break
        t += 1

    # Normalize signs.
    for k in range(min(rows, cols)):
        if m[k][k] < 0:
            m[k][k] = -m[k][k]
            vt[k] = [-x for x in vt[k]]
    return SnfResult(d=freeze(m), u=freeze(u), v=transpose(vt))


def one_sided_smith_normal_form(matrix: Sequence[Sequence[int]],
                                transform: str | None = None) -> KernelSnfResult:
    """Smith normal form, recording the row transform U (transform="u"),
    the column transform V ("v"), both ("uv") or neither (None).

    Row operations act on U from the left, column operations on V from the
    right, keeping U @ A @ V equal to the working matrix throughout.  The
    elimination never reads the transforms, so D, U and V do not depend on
    which one is recorded.  V is built transposed, so a column operation on
    V is a row operation on the list of its columns.
    """
    if transform not in (None, "u", "v", "uv"):
        raise ValidationError(f"transform must be 'u', 'v', 'uv' or None, not {transform!r}")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(len(row) != cols for row in matrix):
        raise ValidationError("ragged matrix")
    _require_ints(matrix, "Smith normal form")
    m = [list(row) for row in matrix]
    u = identity(rows) if transform in ("u", "uv") else None
    vt = identity(cols) if transform in ("v", "uv") else None

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j
        m[i] = [a - q * b for a, b in zip(m[i], m[j])]
        if u is not None:
            u[i] = [a - q * b for a, b in zip(u[i], u[j])]

    def swap_rows(i: int, j: int) -> None:
        m[i], m[j] = m[j], m[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        # Rows above t are zero outside the diagonal.
        for r in range(t, rows):
            row = m[r]
            row[i], row[j] = row[j], row[i]
        if vt is not None:
            vt[i], vt[j] = vt[j], vt[i]

    t = 0
    while t < min(rows, cols):
        # Smallest nonzero pivot keeps intermediate entries from exploding;
        # ties go to the first in row-major order, so a 1 ends the search.
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(m[i][j])
                if a and (best is None or a < best):
                    best, pivot = a, (i, j)
                    if a == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            p = m[t][t]
            # Reduce column t; any leftover remainder is a smaller pivot.
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    row_op(i, t, m[i][t] // p)
            moved = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    swap_rows(t, i)
                    moved = True
                    break
            if moved:
                continue
            # col_j -= q * col_t; column t is zero off the diagonal here, so
            # in the working matrix only row t changes.
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    m[t][j] -= q * p
                    if vt is not None:
                        vt[j] = [a - q * b for a, b in zip(vt[j], vt[t])]
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    swap_cols(t, j)
                    moved = True
                    break
            if moved:
                continue
            # The pivot must divide the whole remaining block or later
            # diagonal entries break the chain; folding an offending row
            # into row t shrinks the pivot and the loop retries.
            bad = None if abs(p) == 1 else next(
                (i for i in range(t + 1, rows) if any(x % p for x in m[i][t + 1:])), None)
            if bad is not None:
                row_op(t, bad, -1)
                continue
            break
        t += 1

    # Normalize signs: negating column k of D negates column k of V.
    diagonal = []
    for k in range(min(rows, cols)):
        if m[k][k] < 0 and vt is not None:
            vt[k] = [-x for x in vt[k]]
        diagonal.append(abs(m[k][k]))
    return KernelSnfResult(tuple(diagonal), None if u is None else freeze(u),
                     None if vt is None else transpose(vt))


def rat_inv(matrix: Sequence[Sequence]) -> tuple:
    """Exact inverse of a square rational matrix by Gauss-Jordan."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(matrix)]
    if any(len(row) != 2 * n for row in m):
        raise ValidationError("inverse needs a square matrix")
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            raise ValidationError("matrix is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(tuple(row[n:]) for row in m)


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


def fraction_det(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant by Gauss elimination over Q with row swaps."""
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(m)):
        pivot = next((i for i in range(k, len(m)) if m[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, len(m)):
            f = m[i][k] / m[k][k]
            m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def unpivoted_elimination(gram: Sequence[Sequence[int]]) -> IntMatrix:
    """Fraction-free symmetric Bareiss elimination with no pivoting, upper
    rows only: row j holds M_jj, ..., M_j(n-1), and M_jj is the leading
    principal minor of order j + 1.  The rows stop at the first vanishing
    minor."""
    m = [tuple(row[i:]) for i, row in enumerate(gram)]
    prev = 1
    for j, head in enumerate(m):
        piv = head[0]
        if piv == 0:
            return tuple(m[:j + 1])
        for k in range(1, len(head)):
            a = head[k]
            m[j + k] = tuple([(piv * x - a * y) // prev
                              for x, y in zip(m[j + k], head[k:])])
        prev = piv
    return tuple(m)


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
