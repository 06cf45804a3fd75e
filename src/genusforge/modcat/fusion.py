"""Verlinde fusion tables and genus-g dimensions, exactly.

Both operations nominally divide by powers of sqrt(D) and by the dims;
they are arranged so only integer powers of D appear, and the final
division is an exactness check: a non-integer outcome means the data was
not modular and is reported as such rather than rounded.  Both read the
term table of `data`, so a sum over labels is a count of exponent sums
over zeta_M, reduced to the power basis in integers.  A pointed dim
zeta^e inverts to zeta^-e; the dims of other data are inverted once each
with `CyclotomicNumber.inverse` and written back as terms over one
common integer, which the exactness check divides out.

Data with one term per entry, s_tilde[i][j] = zeta_M^E[i, j], and D = n
(every dim squares to 1) fuse by row lookup: N_ij^k = 1 exactly when
E[k] = E[i] + E[j] - E[0] (mod M), and 0 otherwise.  Proof, once
relation (i) s_tilde^2 = D P holds: its (i, i*) entry is a sum of n
roots of unity equal to n, so every term is 1 and E[i*] = -E[i], i.e.
row i* is the conjugate of row i.  The other entries of (i) then say the
rows are orthogonal, each of squared norm n.  The Verlinde formula reads
N_ij^k = <v, row k> / n for the vector v_l = s[i][l] s[j][l] / s[0][l]
of squared norm n, so by Parseval sum_k |N_ij^k|^2 = 1.  A row equal to
v therefore carries the only nonzero entry, 1; if no row matches, some
entry is not a nonnegative integer and NonIntegralError is raised.  The
rows are hashed once, so the table costs O(n^2) lookups.  Other data go
through the Verlinde sum over terms.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from ..errors import NonIntegralError, ValidationError
from ..exactkernel import fraction_str, reduce_int_counts
from .data import ModularData, times
from .relations import _pair_counts, verify_relations

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


def _require_modular(m: ModularData) -> None:
    report = verify_relations(m)
    if not report.ok:
        raise ValidationError(
            f"modular relations fail ({report.failed}): {report.detail}")


def _fusion_rows(m: ModularData) -> FusionTable:
    """Row lookup for data with one term per entry and D = n whose relation
    (i) holds."""
    order, s, _ = m.terms
    exps = s[:, :, 0]
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


def _fusion_terms(m: ModularData) -> FusionTable:
    """The Verlinde sum over terms, one label i at a time: for every (j, k),
    counts of scale * s[i][l] s[j][l] conj(s[k][l]) / dims_l summed over l."""
    order, s, _ = m.terms
    inverse, scale = m.inverse_dims
    div = m.discriminant * scale
    conj = np.where(s < 0, -1, -s % order)  # s_tilde is symmetric: [l, k] = conj s[k][l]
    out = []
    for i in range(m.n):
        left = times(times(s[i], inverse, order)[None], s, order)  # [j, l]
        coeffs = reduce_int_counts(order, _pair_counts(left, conj, order))  # [j, k]
        vals = coeffs[..., 0]
        bad = coeffs[..., 1:].any(axis=-1) | (vals % div != 0) | (vals < 0)
        if bad.any():
            j, k = (int(x[0]) for x in np.nonzero(bad))
            raise NonIntegralError(
                f"fusion N[{i}][{j}][{k}] is not a nonnegative integer")
        out.append(tuple(map(tuple, (vals // div).tolist())))
    return FusionTable(tuple(out))


def verlinde_fusion(m: ModularData) -> FusionTable:
    """N[i][j][k] = (1/D) sum_l s[i][l] s[j][l] conj(s[k][l]) / s[0][l]."""
    _require_modular(m)
    by_rows = m.pointed and m.discriminant == m.n
    table = _fusion_rows(m) if by_rows else _fusion_terms(m)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("fusion of %d labels: %s", m.n,
                   "row lookup" if by_rows else "Verlinde sum over terms")
    return table


def _block_sum(m: ModularData, power: int, labels) -> tuple[int, int]:
    """(num, den) of sum_j dims_j^power prod_s s_tilde[i_s][j], with counts over
    zeta_M for each label j multiplied by one factor's terms at a time, or,
    when every entry is one root of unity, as one count of exponent sums."""
    order, s, _ = m.terms
    base, scale = m.inverse_dims if power < 0 else (s[0], 1)
    if m.pointed:
        exps = abs(power) * base[:, 0] + sum(s[i, :, 0] for i in labels)
        total = np.bincount(exps % order, minlength=order)
    else:
        counts = np.zeros((m.n, order), dtype=np.int64)
        counts[:, 0] = 1
        rows, exps = np.arange(m.n)[:, None, None], np.arange(order)
        for factor in [base] * abs(power) + [s[i] for i in labels]:
            if counts.dtype != object and int(counts.max()) * factor.shape[1] >= 2 ** 62:
                counts = counts.astype(object)
            shifted = counts[rows, (exps - factor[:, :, None]) % order]  # [j, t, e]
            shifted[factor < 0] = 0
            counts = shifted.sum(axis=1)
        total = counts.sum(axis=0)
    coeffs = reduce_int_counts(order, total).tolist()
    if any(coeffs[1:]):
        raise NonIntegralError("genus dimension is not rational")
    return coeffs[0], scale ** abs(power)


def genus_dimension(m: ModularData, g: int,
                    punctures: Sequence[int] = ()) -> int:
    """Dimension D^(g-1) sum_j dims_j^(2-2g-n) prod_s s_tilde[i_s][j] of the
    genus-g conformal block with the given punctures; must be integral, as
    one divmod of the block sum's integers (num, den) times D^(g-1) shows."""
    if isinstance(g, bool) or not isinstance(g, Integral) or g < 0:
        raise ValidationError("genus must be a nonnegative integer")
    labels = list(punctures)
    for i in labels:
        if isinstance(i, bool) or not isinstance(i, Integral) or not 0 <= i < m.n:
            raise ValidationError(f"puncture label {i!r} out of range")
    _require_modular(m)
    g, d = int(g), m.discriminant
    power = 2 - 2 * g - len(labels)
    num, den = _block_sum(m, power, labels)
    num, den = (num * d ** (g - 1), den) if g else (num, den * d)
    total, rest = divmod(num, den)
    if rest or total < 0:
        raise NonIntegralError(
            f"genus dimension {fraction_str(num, den)} is not a nonnegative integer")
    return total
