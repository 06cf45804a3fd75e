"""The counting and cyclotomic code that pointed modular data used to run,
kept as the oracle for the exponent-table paths.

- `fusion_by_counts`: the Verlinde sum of every (i, j, k) as exponent
  counts over zeta_M, reduced to the power basis and divided by D.
- `milgram_by_cyclotomics`: sum_j theta_j d_j^2 multiplied out, squared
  and compared in `CyclotomicNumber` arithmetic, with the sign read off a
  certified interval.
- `signature_by_cyclotomics`: the same for the Gauss sum of a space.
- `eager_s_tilde`: the matrix `from_quadratic_space` used to build up
  front, one root of unity per entry.
- `exponents_by_embedding`: the exponent table of a given matrix, each
  entry embedded in the common field and looked up in its power index.
"""

from fractions import Fraction

import numpy as np

from genusforge.errors import InternalError, NonIntegralError
from genusforge.exactkernel import (
    CyclotomicNumber,
    as_fraction,
    cyclo_approx,
    reduce_int_counts,
    root_of_unity,
)
from genusforge.exactkernel.cyclotomic import _power_index, _reduction_rows
from genusforge.modcat import FusionTable
from genusforge.quadspace import gauss_sum
from genusforge.quadspace.gauss import _phase_counts


def fusion_by_counts(m):
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


def _twisted_dimension_sum(m):
    if m.exponents is not None:
        order, exps, tau = m.exponents
        counts = np.bincount((tau + 2 * exps[0]) % order, minlength=order)
        return CyclotomicNumber(order, [Fraction(c) for c in reduce_int_counts(order, counts)])
    acc = CyclotomicNumber.zero()
    for j in range(m.n):
        d = m.dims[j]
        acc = acc + root_of_unity(m.twists[j]) * d * d
    return acc


def milgram_by_cyclotomics(m, c, bits=128):
    c = as_fraction(c)
    g = _twisted_dimension_sum(m)
    if g * g != root_of_unity(c / 4) * CyclotomicNumber.from_rational(m.discriminant):
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
    order, exps, _ = m.exponents
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
