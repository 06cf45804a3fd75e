"""Exact integer matrix routines.

Matrices are plain tuples of tuples (immutable at API boundaries); internal
routines work on lists of lists.  Everything here is exact and
fraction-free: determinants by Bareiss elimination, Smith normal forms that
record only the transform their caller reads, row lattice bases read off
the row transform (no inverse is formed), and signatures by symmetric
integer elimination.  `_factorize` is the one integer factorization that
the cyclotomic and quadratic-space layers read.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from numbers import Rational
from operator import mul
from typing import Sequence

from ..errors import LimitError, ValidationError

IntMatrix = tuple[tuple[int, ...], ...]


def _factorize(n: int) -> dict[int, int]:
    """Prime factors, ascending, by trial division up to 2^16.  What is left
    below 2^32 has no factor up to its square root, so it is prime; a
    cofactor of 2^32 or more raises LimitError."""
    out: dict[int, int] = {}
    m = n
    for p in chain((2,), range(3, (1 << 16) + 1, 2)):
        if p * p > m:
            break
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
    if m >= 1 << 32:
        raise LimitError(f"{n} has a cofactor {m} >= 2^32 with no prime factor "
                         f"up to 2^16; trial division stops there")
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def freeze(rows: Sequence[Sequence]) -> tuple:
    return tuple(tuple(row) for row in rows)


def identity(n: int) -> list[list[int]]:
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        out[i][i] = 1
    return out


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> tuple:
    if a and b and len(a[0]) != len(b):
        raise ValidationError("matrix shape mismatch in multiplication")
    if not b:
        return tuple(() for _ in a)
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


def transpose(a: Sequence[Sequence]) -> tuple:
    if not a:
        return ()
    return tuple(tuple(col) for col in zip(*a))


def _require_ints(matrix: Sequence[Sequence], what: str) -> None:
    # bool is an int subclass; a True entry is a mistake, not the number 1.
    kinds = set(map(type, chain.from_iterable(matrix)))
    if kinds - {int} and any(issubclass(k, bool) or not issubclass(k, int) for k in kinds):
        raise ValidationError(f"{what} needs integer entries")


def det_int(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    if any(len(row) != n for row in matrix):
        raise ValidationError("determinant needs a square matrix")
    _require_ints(matrix, "determinant")
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    `diagonal` holds the min(rows, cols) diagonal entries of D, nonnegative
    with d1 | d2 | ... .  Only the transform that was asked for is
    recorded; the other field is None.
    """

    diagonal: tuple[int, ...]
    u: IntMatrix | None = None
    v: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def smith_normal_form(matrix: Sequence[Sequence[int]],
                      transform: str | None = None) -> SnfResult:
    """Smith normal form, recording the row transform U (transform="u"),
    the column transform V ("v") or neither (None).

    Row operations act on U from the left, column operations on V from the
    right, keeping U @ A @ V equal to the working matrix throughout.  The
    elimination never reads the transforms, so D, U and V do not depend on
    which one is recorded.  V is built transposed, so a column operation on
    V is a row operation on the list of its columns.
    """
    if transform not in (None, "u", "v"):
        raise ValidationError(f"transform must be 'u', 'v' or None, not {transform!r}")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if any(len(row) != cols for row in matrix):
        raise ValidationError("ragged matrix")
    _require_ints(matrix, "Smith normal form")
    m = [list(row) for row in matrix]
    u = identity(rows) if transform == "u" else None
    vt = identity(cols) if transform == "v" else None

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
    return SnfResult(tuple(diagonal), None if u is None else freeze(u),
                     None if vt is None else transpose(vt))


def integer_kernel(matrix: Sequence[Sequence[int]]) -> tuple:
    """Basis (as rows) of the integer kernel {x : A x = 0}, saturated."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    if cols == 0:
        return ()
    if rows == 0:
        return freeze(identity(cols))
    res = smith_normal_form(matrix, "v")
    # x = V y with y_k free exactly for k >= rank.
    return transpose(res.v)[res.rank:]


def row_lattice_basis(matrix: Sequence[Sequence[int]]) -> tuple:
    """Basis (as rows) of the lattice spanned by the rows over Z.

    With U A V = D, row operations preserve the row lattice, so the nonzero
    rows of U A = D V^(-1) are a basis: the first rank rows of U A.
    """
    res = smith_normal_form(matrix, "u")
    return mat_mul(res.u[:res.rank], matrix)


def rational_signature(matrix: Sequence[Sequence]) -> tuple[int, int, int]:
    """(n_plus, n_minus, n_zero) of a symmetric rational matrix.

    Exact symmetric congruence diagonalization in integers.  The matrix is
    scaled integral by one positive factor.  With pivot p, the column c
    below it and the block B after it, the next block is sign(p) (p B - c c^T),
    |p| times the Schur complement, with its content divided out.  When the
    whole remaining diagonal vanishes but the block is nonzero, the basis
    change e_i <- e_i + e_j manufactures a nonzero diagonal entry (valid
    away from characteristic 2).
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValidationError("signature needs a square matrix")
    if any(isinstance(x, bool) or not isinstance(x, Rational) for row in matrix for x in row):
        raise ValidationError("signature needs rational entries")
    for i in range(n):
        for j in range(i + 1, n):
            if matrix[i][j] != matrix[j][i]:
                raise ValidationError("signature needs a symmetric matrix")
    scale = lcm(1, *(int(x.denominator) for row in matrix for x in row))
    m = [[int(x.numerator) * (scale // int(x.denominator)) for x in row] for row in matrix]
    pos = neg = zero = 0
    while m:
        if m[0][0] == 0:
            swap = next((j for j in range(1, len(m)) if m[j][j] != 0), None)
            if swap is not None:
                m[0], m[swap] = m[swap], m[0]
                for row in m:
                    row[0], row[swap] = row[swap], row[0]
            else:
                off = next((j for j in range(1, len(m)) if m[0][j] != 0), None)
                if off is None:
                    zero += 1
                    m = [row[1:] for row in m[1:]]
                    continue
                # e_0 <- e_0 + e_off gives diagonal entry 2*m[0][off].
                m[0] = [a + b for a, b in zip(m[0], m[off])]
                for row in m:
                    row[0] += row[off]
        p = m[0][0]
        head = m[0][1:]
        if p > 0:
            pos += 1
            m = [[p * a - row[0] * b for a, b in zip(row[1:], head)] for row in m[1:]]
        else:
            neg += 1
            m = [[row[0] * b - p * a for a, b in zip(row[1:], head)] for row in m[1:]]
        g = gcd(*(x for row in m for x in row))
        if g > 1:
            m = [[x // g for x in row] for row in m]
    return pos, neg, zero
