"""Verlinde fusion tables and genus-g dimensions, exactly.

Both operations nominally divide by powers of sqrt(D); here they are
arranged so only integer powers of D appear, and the final division is
an exactness check: a non-integer outcome means the data was not
modular and is reported as such rather than rounded.

Pointed data with D = n (every dim squares to 1) fuse by row lookup:
N_ij^k = 1 exactly when E[k] = E[i] + E[j] - E[0] (mod M), and 0
otherwise.  Proof, once relation (i) s_tilde^2 = D P holds: its (i, i*)
entry is a sum of n roots of unity equal to n, so every term is 1 and
E[i*] = -E[i], i.e. row i* is the conjugate of row i.  The other entries
of (i) then say the rows are orthogonal, each of squared norm n.  The
Verlinde formula reads N_ij^k = <v, row k> / n for the vector
v_l = s[i][l] s[j][l] / s[0][l] of squared norm n, so by Parseval
sum_k |N_ij^k|^2 = 1.  A row equal to v therefore carries the only
nonzero entry, 1; if no row matches, some entry is not a nonnegative
integer and NonIntegralError is raised.  The rows are hashed once, so
the table costs O(n^2) lookups.  Other data, including pointed data with
D != n, go through the Verlinde sum in cyclotomic arithmetic.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..errors import NonIntegralError, ValidationError
from ..exactkernel import CyclotomicNumber
from ..exactkernel.cyclotomic import reduce_int_counts
from .data import ModularData
from .relations import verify_relations

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FusionTable:
    """Structure constants N[i][j][k] of the fusion ring."""

    table: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def n(self) -> int:
        return len(self.table)

    def __getitem__(self, ij: tuple[int, int]) -> tuple[int, ...]:
        i, j = ij
        return self.table[i][j]

    def product(self, i: int, j: int) -> tuple[int, ...]:
        return self.table[i][j]


def _require_modular(m: ModularData) -> None:
    report = verify_relations(m)
    if not report.ok:
        raise ValidationError(
            f"modular relations fail ({report.failed}): {report.detail}")


def _fusion_rows(m: ModularData) -> FusionTable:
    """Row lookup for pointed data with D = n whose relation (i) holds."""
    order, exps, _ = m.exponents
    n = m.n
    width = n * exps.itemsize
    index = {row.tobytes(): k for k, row in enumerate(exps)}
    unit = tuple(tuple(int(k == c) for c in range(n)) for k in range(n))
    out = []
    for i in range(n):
        sums = ((exps[i] - exps[0] + exps) % order).tobytes()  # row j: E[i] + E[j] - E[0]
        row = []
        for j in range(n):
            k = index.get(sums[j * width:(j + 1) * width])
            if k is None:
                raise NonIntegralError(
                    f"fusion N[{i}][{j}] matches no row, so some entry is "
                    "not a nonnegative integer")
            row.append(unit[k])
        out.append(tuple(row))
    return FusionTable(tuple(out))


def _fusion_cyclotomic(m: ModularData) -> FusionTable:
    n = m.n
    d = Fraction(m.discriminant)
    inv_dims = [m.dims[l].inverse() for l in range(n)]
    conj = [[m.s_tilde[k][l].conjugate() for l in range(n)] for k in range(n)]
    out = []
    for i in range(n):
        mat = []
        for j in range(n):
            w = [m.s_tilde[i][l] * m.s_tilde[j][l] * inv_dims[l] for l in range(n)]
            row = []
            for k in range(n):
                acc = CyclotomicNumber.zero()
                for l in range(n):
                    acc = acc + w[l] * conj[k][l]
                val = acc.is_rational()
                if val is None or (val / d).denominator != 1 or val < 0:
                    raise NonIntegralError(
                        f"fusion N[{i}][{j}][{k}] is not a nonnegative integer")
                row.append(int(val / d))
            mat.append(tuple(row))
        out.append(tuple(mat))
    return FusionTable(tuple(out))


def verlinde_fusion(m: ModularData) -> FusionTable:
    """N[i][j][k] = (1/D) sum_l s[i][l] s[j][l] conj(s[k][l]) / s[0][l]."""
    _require_modular(m)
    by_rows = m.exponents is not None and m.discriminant == m.n
    table = _fusion_rows(m) if by_rows else _fusion_cyclotomic(m)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("fusion of %d labels: %s", m.n,
                   "row lookup" if by_rows else "cyclotomic Verlinde sum")
    return table


def _block_sum_exponents(m: ModularData, power: int, labels) -> Fraction:
    """sum_j dims_j^power prod_s s_tilde[i_s][j], on exponents."""
    order, exps, _ = m.exponents
    e = (power * exps[0]) % order
    for i in labels:
        e = (e + exps[i]) % order
    coeffs = reduce_int_counts(order, np.bincount(e, minlength=order)).tolist()
    if any(coeffs[1:]):
        raise NonIntegralError("genus dimension is not rational")
    return Fraction(coeffs[0])


def _block_sum_cyclotomic(m: ModularData, power: int, labels) -> Fraction:
    """sum_j dims_j^power prod_s s_tilde[i_s][j], in cyclotomic arithmetic."""
    acc = CyclotomicNumber.zero()
    for j in range(m.n):
        term = m.dims[j] ** power
        for i in labels:
            term = term * m.s_tilde[i][j]
        acc = acc + term
    val = acc.is_rational()
    if val is None:
        raise NonIntegralError("genus dimension is not rational")
    return val


def genus_dimension(m: ModularData, g: int,
                    punctures: Sequence[int] = ()) -> int:
    """Dimension D^(g-1) sum_j dims_j^(2-2g-n) prod_s s_tilde[i_s][j] of the
    genus-g conformal block with the given punctures; must be integral."""
    if isinstance(g, bool) or not isinstance(g, int) or g < 0:
        raise ValidationError("genus must be a nonnegative integer")
    labels = list(punctures)
    for i in labels:
        if isinstance(i, bool) or not isinstance(i, int) or not 0 <= i < m.n:
            raise ValidationError(f"puncture label {i!r} out of range")
    _require_modular(m)
    power = 2 - 2 * g - len(labels)
    block_sum = _block_sum_cyclotomic if m.exponents is None else _block_sum_exponents
    total = block_sum(m, power, labels) * Fraction(m.discriminant) ** (g - 1)
    if total.denominator != 1 or total < 0:
        raise NonIntegralError(
            f"genus dimension {total} is not a nonnegative integer")
    return int(total)
