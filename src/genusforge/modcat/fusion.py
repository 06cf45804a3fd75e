"""Verlinde fusion tables and genus-g dimensions, exactly.

Both operations nominally divide by powers of sqrt(D); here they are
arranged so only integer powers of D appear, and the final division is
an exactness check: a non-integer outcome means the data was not
modular and is reported as such rather than rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from ..errors import NonIntegralError, ValidationError
from ..exactkernel import CyclotomicNumber
from ..exactkernel.cyclotomic import _reduction_rows, reduce_int_counts
from .data import ModularData
from .relations import verify_relations


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


def _fusion_exponents(m: ModularData) -> FusionTable:
    order, exps, _ = m.exponents
    n = m.n
    d = m.discriminant
    rows = np.array(_reduction_rows(order), dtype=np.int64)
    offsets = (order * np.arange(n * n, dtype=np.int64)).reshape(n, n, 1)
    out = []
    for i in range(n):
        base = (exps[i] - exps[0])[None, None, :]
        e = (base + exps[None, :, :] - exps[:, None, :]) % order  # [k, j, l]
        counts = np.bincount((e + offsets).ravel(),
                             minlength=order * n * n).reshape(n * n, order)
        coeffs = (counts @ rows).reshape(n, n, -1)  # [k, j, phi]
        vals = coeffs[:, :, 0]
        bad = coeffs[:, :, 1:].any(axis=2) | (vals % d != 0) | (vals < 0)
        if np.any(bad):
            k, j = (int(x[0]) for x in np.nonzero(bad))
            raise NonIntegralError(
                f"fusion N[{i}][{j}][{k}] is not a nonnegative integer")
        nij = (vals // d).T  # [j, k]
        out.append(tuple(map(tuple, nij.tolist())))
    return FusionTable(tuple(out))


def _fusion_cyclotomic(m: ModularData) -> FusionTable:
    n = m.n
    d = Fraction(m.discriminant)
    inv_dims = [m.dims[l].inverse() for l in range(n)]
    out = []
    for i in range(n):
        mat = []
        for j in range(n):
            row = []
            for k in range(n):
                acc = CyclotomicNumber.zero()
                for l in range(n):
                    acc = acc + (m.s_tilde[i][l] * m.s_tilde[j][l]
                                 * m.s_tilde[k][l].conjugate() * inv_dims[l])
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
    return _fusion_cyclotomic(m) if m.exponents is None else _fusion_exponents(m)


def _block_sum_exponents(m: ModularData, power: int, labels) -> Fraction:
    """sum_j dims_j^power prod_s s_tilde[i_s][j], on exponents."""
    order, exps, _ = m.exponents
    e = (power * exps[0]) % order
    for i in labels:
        e = (e + exps[i]) % order
    coeffs = reduce_int_counts(order, np.bincount(e, minlength=order))
    if any(coeffs[1:]):
        raise NonIntegralError("genus dimension is not rational")
    return Fraction(coeffs[0])


def _block_sum_cyclotomic(m: ModularData, power: int, labels) -> Fraction:
    """sum_j dims_j^power prod_s s_tilde[i_s][j], in cyclotomic arithmetic."""
    acc = CyclotomicNumber.zero()
    for j in range(m.n):
        dim = m.dims[j]
        base = dim.inverse() if power < 0 else dim
        term = CyclotomicNumber.one()
        for _ in range(abs(power)):
            term = term * base
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
    if not isinstance(g, int) or g < 0:
        raise ValidationError("genus must be a nonnegative integer")
    labels = list(punctures)
    for i in labels:
        if not isinstance(i, int) or not 0 <= i < m.n:
            raise ValidationError(f"puncture label {i!r} out of range")
    _require_modular(m)
    power = 2 - 2 * g - len(labels)
    block_sum = _block_sum_cyclotomic if m.exponents is None else _block_sum_exponents
    total = block_sum(m, power, labels) * Fraction(m.discriminant) ** (g - 1)
    if total.denominator != 1 or total < 0:
        raise NonIntegralError(
            f"genus dimension {total} is not a nonnegative integer")
    return int(total)
