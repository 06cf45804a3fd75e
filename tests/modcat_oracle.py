"""The counting and cyclotomic code that modular data used to run, kept as
the oracle for the term-table paths.

- `verify_cyclotomic`, `fusion_cyclotomic`, `block_sum_cyclotomic`,
  `discriminant_cyclotomic` and `twisted_dimension_cyclotomic`: the
  relations, the Verlinde sum, the genus block sum, D and the twisted
  dimension sum multiplied out one `CyclotomicNumber` at a time over
  `s_tilde`, as the library did for data that were not pointed.

- `fusion_by_counts`: the Verlinde sum of every (i, j, k) of pointed data
  as exponent counts over zeta_M, reduced to the power basis and divided
  by D.
- `milgram_by_cyclotomics`: sum_j theta_j d_j^2 multiplied out, squared
  and compared in `CyclotomicNumber` arithmetic, with the sign read off a
  certified interval.
- `signature_by_cyclotomics`: the same for the Gauss sum of a space.
- `eager_s_tilde`: the matrix `from_quadratic_space` used to build up
  front, one root of unity per entry.
- `exponents_by_embedding`: the exponent table of a given matrix, each
  entry embedded in the common field and looked up in its power index.
- `gauss_phase`, `voa_milgram_check`, `_block_sum` and `genus_dimension`:
  the `Fraction` routes the library ran before its phases and genus
  dimensions became integers, kept verbatim.  `gauss_phase` returns the
  phase as a `Fraction` in [0, 1), its sign read off the certified
  rectangle of `_enclose`; `_block_sum` returns a `Fraction`.
"""

import logging
import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from genusforge.errors import InternalError, NonIntegralError, ValidationError
from genusforge.exactkernel import (
    CyclotomicNumber,
    as_fraction,
    cyclo_approx,
    reduce_int_counts,
    root_of_unity,
)
from genusforge.exactkernel.cyclotomic import (
    _MIN_BITS,
    _convolve,
    _enclose,
    _power_index,
    _reduction_rows,
)
from genusforge.exactkernel.rationals import RationalLike
from genusforge.modcat import FusionTable, ModularData, RelationReport
from genusforge.modcat.fusion import _require_modular
from genusforge.quadspace import gauss_sum
from genusforge.quadspace.gauss import _phase_counts


def fusion_by_counts(m):
    order, s, _ = m.terms
    exps = s[:, :, 0]
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


def twisted_dimension_cyclotomic(m):
    acc = CyclotomicNumber.zero()
    for j in range(m.n):
        d = m.dims[j]
        acc = acc + root_of_unity(m.twists[j].value) * d * d
    return acc


def milgram_by_cyclotomics(m, c, bits=128):
    c = as_fraction(c)
    g = twisted_dimension_cyclotomic(m)
    if g * g != root_of_unity(c / 4) * CyclotomicNumber.from_rational(discriminant_cyclotomic(m)):
        return False
    box = cyclo_approx(g * root_of_unity(-c / 8), bits=bits)
    if box.strictly_positive_real():
        return True
    if box.strictly_negative_real():
        return False
    raise InternalError("certified interval failed to separate the two roots")


def signature_by_cyclotomics(s, bits=128):
    if s.order == 1:
        return 0
    m, counts = _phase_counts(s)
    full = np.convolve(counts, counts)
    squared = np.zeros(m, dtype=np.int64)
    for start in range(0, len(full), m):
        chunk = full[start:start + m]
        squared[: len(chunk)] += chunk
    g_squared = CyclotomicNumber(m, [Fraction(int(c))
                                     for c in reduce_int_counts(m, squared.tolist())])
    s4 = next((k for k in range(4)
               if g_squared == s.order * root_of_unity(Fraction(k, 4))), None)
    if s4 is None:
        raise InternalError("Gauss sum squared is not |A| times a fourth root of unity")
    box = cyclo_approx(gauss_sum(s) * root_of_unity(Fraction(-s4, 8)), bits=bits)
    if box.strictly_positive_real():
        return s4 % 8
    if box.strictly_negative_real():
        return (s4 + 4) % 8
    raise InternalError("certified interval failed to separate Gauss phases")


def eager_s_tilde(m):
    order, s, _ = m.terms
    exps = s[:, :, 0]
    roots = {}
    for e in np.unique(exps).tolist():
        p = Fraction(e, order)
        roots[e] = CyclotomicNumber.from_exponents(p.denominator, {p.numerator: 1})
    return tuple(tuple(roots[e] for e in row) for row in exps.tolist())


def exponents_by_embedding(matrix, twists):
    """(order, exponents, twist exponents) of a square matrix of roots of
    unity, or None."""
    order = np.lcm.reduce([x.order for row in matrix for x in row]
                          + [t.value.denominator for t in twists])
    power = _power_index(int(order))
    exps = [[power.get(x.embed(int(order)).coeffs) for x in row] for row in matrix]
    if any(None in row for row in exps):
        return None
    tau = [t.value.numerator * (int(order) // t.value.denominator) for t in twists]
    return int(order), np.array(exps, dtype=np.int64), np.array(tau, dtype=np.int64)


def discriminant_cyclotomic(m):
    d = CyclotomicNumber.zero()
    for x in m.dims:
        d = d + x * x
    return d.is_integer()


def _mat_mul_cyclo(a, b):
    n = len(a)
    zero = CyclotomicNumber.zero()
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = zero
            for j in range(n):
                acc = acc + a[i][j] * b[j][k]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def verify_cyclotomic(m):
    n = m.n
    d = CyclotomicNumber.from_rational(discriminant_cyclotomic(m))
    zero = CyclotomicNumber.zero()
    s2 = _mat_mul_cyclo(m.s_tilde, m.s_tilde)
    for i in range(n):
        for k in range(n):
            want = d if k == m.dual[i] else zero
            if s2[i][k] != want:
                return RelationReport("i", f"s_tilde^2 != D*P at ({i},{k})")
    if any(m.dual[m.dual[i]] != i for i in range(n)):
        return RelationReport("ii", "dual is not an involution")
    theta = [root_of_unity(t.value) for t in m.twists]
    for i in range(n):
        for k in range(n):
            if s2[i][k] * theta[k] != theta[i] * s2[i][k]:
                return RelationReport(
                    "iii", f"s_tilde^2 and T do not commute at ({i},{k})")
    st = tuple(tuple(m.s_tilde[i][j] * theta[j] for j in range(n))
               for i in range(n))
    cubed = _mat_mul_cyclo(_mat_mul_cyclo(st, st), st)
    gauss = zero
    for i in range(n):
        gauss = gauss + theta[i] * m.dims[i] * m.dims[i]
    for i in range(n):
        for k in range(n):
            if cubed[i][k] != gauss * s2[i][k]:
                return RelationReport(
                    "iv", f"(s_tilde*T)^3 mismatch at ({i},{k})")
    return RelationReport(None, "")


def fusion_cyclotomic(m):
    n = m.n
    d = Fraction(discriminant_cyclotomic(m))
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


def block_sum_cyclotomic(m, power, labels):
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


_log = logging.getLogger(__name__)


def gauss_phase(order: int, counts: Sequence[int], norm: int) -> Fraction | None:
    """The phase t in [0, 1) with G = sqrt(norm) exp(2 pi i t), for the sum
    G = sum_e counts[e] zeta_order^e with integer counts, or None when G is
    not of that form.

    G^2 is the cyclic convolution of the counts, reduced mod Phi_order in
    integers; it must be norm times +-zeta_order^e, which fixes 2t mod 1.
    The two candidates for t differ by 1/2, so G turned back by the first
    is +-sqrt(norm) with norm >= 1, and one certified interval of width
    at most 2^-31 (the enclosure `cyclo_approx` uses) reads the sign.  It
    is taken of the turned counts as they are, over zeta_rot: reducing them
    mod Phi_rot would not change the value.  No `CyclotomicNumber` is built.
    """
    counts = counts.tolist() if isinstance(counts, np.ndarray) else list(counts)
    coeffs = reduce_int_counts(order, _convolve(counts, counts)).tolist()
    if any(x % norm for x in coeffs):
        return None
    index = _power_index(order)
    target = tuple(x // norm for x in coeffs)
    if target in index:
        twice = Fraction(index[target], order)
    else:
        e = index.get(tuple(-x for x in target))
        if e is None:
            return None
        twice = (Fraction(e, order) + Fraction(1, 2)) % 1
    t = twice / 2
    rot = math.lcm(order, t.denominator)
    turned = [0] * rot  # G zeta^(-t), over the order rot
    for e, k in enumerate(counts):
        turned[(e * (rot // order) - t.numerator * (rot // t.denominator)) % rot] = k
    box = _enclose(rot, turned, _MIN_BITS)
    if box.strictly_positive_real():
        return t
    if box.strictly_negative_real():
        return t + Fraction(1, 2)
    raise InternalError("certified interval failed to separate the two phases")


def voa_milgram_check(m: ModularData, c: RationalLike) -> bool:
    """Whether sum_j theta_j d_j^2 equals exp(2 pi i c/8) sqrt(D)."""
    c = as_fraction(c)
    phase = gauss_phase(m.terms.order, m.gauss_counts, m.discriminant)
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("Milgram check of %d labels at c = %s: %s", m.n, c,
                   "integer square test failed" if phase is None else
                   f"integer square test and one certified interval, phase {phase}")
    return phase == (c / 8) % 1


def _block_sum(m: ModularData, power: int, labels) -> Fraction:
    """sum_j dims_j^power prod_s s_tilde[i_s][j], with counts over zeta_M for
    each label j multiplied by one factor's terms at a time, or, when every
    entry is one root of unity, as one count of exponent sums."""
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
    return Fraction(coeffs[0], scale ** abs(power))


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
    total = _block_sum(m, power, labels) * Fraction(m.discriminant) ** (g - 1)
    if total.denominator != 1 or total < 0:
        raise NonIntegralError(
            f"genus dimension {total} is not a nonnegative integer")
    return int(total)
