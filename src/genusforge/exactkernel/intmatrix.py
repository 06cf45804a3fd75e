"""Exact integer matrix routines.

Matrices are plain tuples of tuples (immutable at API boundaries); internal
routines work on lists of lists.  Everything here is exact and
fraction-free: Smith normal forms that record only the transform their
caller reads, from one elimination with its operations inline (one with
quotient 0 is skipped), and row lattice bases read off the row transform
(no inverse is formed).  Determinants and signatures of Gram matrices come from the
one elimination `lattice.EvenLattice` keeps.  `_factorize` is the one
integer factorization that the cyclotomic and quadratic-space layers
read.  No floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
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


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V = D with U, V unimodular and D in Smith normal form.

    `diagonal` holds the min(rows, cols) diagonal entries of D, nonnegative
    with d1 | d2 | ... .  Only the transforms that were asked for are
    recorded; a field not asked for is None.
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
    for t in range(min(rows, cols)):
        # Smallest nonzero pivot keeps intermediate entries from exploding;
        # ties go to the first in row-major order, so a 1 ends the search.
        best = 0
        for i, row in enumerate(m[t:], t):
            for j in range(t, cols):
                a = abs(row[j])
                if a and (not best or a < best):
                    best, pi, pj = a, i, j
                    if a == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        while True:
            # Move the pivot (pi, pj) to (t, t).
            if pi != t:
                m[t], m[pi] = m[pi], m[t]
                if u is not None:
                    u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in m[t:]:  # rows above t are zero outside the diagonal
                    row[t], row[pj] = row[pj], row[t]
                if vt is not None:
                    vt[t], vt[pj] = vt[pj], vt[t]
            top = m[t]
            p = top[t]
            pi = pj = t
            # row_i -= q * row_t reduces column t; the first nonzero
            # remainder is the next, smaller pivot.
            for i in range(t + 1, rows):
                a = m[i][t]
                if a:
                    q = a // p
                    if q:
                        m[i] = [x - q * y for x, y in zip(m[i], top)]
                        if u is not None:
                            u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                        a -= q * p
                    if a and pi == t:
                        pi = i
            if pi != t:
                continue
            # col_j -= q * col_t; column t is zero off the diagonal here, so
            # in the working matrix only row t changes.
            for j in range(t + 1, cols):
                a = top[j]
                if a:
                    q = a // p
                    if q:
                        a -= q * p
                        top[j] = a
                        if vt is not None:
                            vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    if a and pj == t:
                        pj = j
            if pj != t:
                continue
            # The pivot must divide the whole remaining block or later
            # diagonal entries break the chain; folding an offending row
            # into row t shrinks the pivot and the loop retries.
            bad = 0 if p in (1, -1) else next(
                (i for i in range(t + 1, rows) if gcd(*m[i][t + 1:]) % p), 0)
            if not bad:
                break
            m[t] = [x + y for x, y in zip(top, m[bad])]
            if u is not None:
                u[t] = [x + y for x, y in zip(u[t], u[bad])]

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
