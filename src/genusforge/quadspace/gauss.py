"""Gauss sums of finite quadratic spaces and the signature mod 8.

The sum G = sum_x exp(pi i q(x)) is assembled exactly from exponent counts.
Squaring G stays in integer arithmetic (a cyclic convolution of the count
vector), which pins the signature mod 4 by cyclotomic equality; the mod-8
ambiguity is settled by a certified interval around G rotated back to the
real axis.  The two candidate phases differ by pi, so any interval of width
below 1 separates them.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ..errors import InternalError
from ..exactkernel import (
    CyclotomicNumber,
    cyclo_approx,
    reduce_int_counts,
    root_of_unity,
)
from .space import FiniteQuadraticSpace


def _phase_counts(s: FiniteQuadraticSpace) -> tuple[int, np.ndarray]:
    """Counts of exp(2 pi i k/M) terms in G, indexed by k."""
    two_n = 2 * s.level
    q = s.table.q
    m = two_n // math.gcd(two_n, int(np.gcd.reduce(q)))
    return m, np.bincount(q // (two_n // m), minlength=m)


def gauss_sum(s: FiniteQuadraticSpace) -> CyclotomicNumber:
    """Exact sum of exp(pi i q(x)) over all x."""
    m, counts = _phase_counts(s)
    coeffs = reduce_int_counts(m, counts)
    return CyclotomicNumber(m, [Fraction(c) for c in coeffs])


def signature_mod8(s: FiniteQuadraticSpace, bits: int = 128) -> int:
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
    total = s.order
    s4 = next((k for k in range(4)
               if g_squared == total * root_of_unity(Fraction(k, 4))), None)
    if s4 is None:
        raise InternalError(
            "Gauss sum squared is not |A| times a fourth root of unity; "
            "the form must be degenerate")
    g = gauss_sum(s)
    aligned = g * root_of_unity(Fraction(-s4, 8))
    box = cyclo_approx(aligned, bits=bits)
    if box.strictly_positive_real():
        return s4 % 8
    if box.strictly_negative_real():
        return (s4 + 4) % 8
    raise InternalError("certified interval failed to separate Gauss phases")
