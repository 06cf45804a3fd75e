"""Gauss sums of finite quadratic spaces.

The sum G = sum_x exp(pi i q(x)) is a count vector: how many x have
q(x)/2 = k/M mod 1, for each k, binned over the space's element table.
`gauss_sum` builds G from the counts as a cyclotomic number.  By
Milgram's formula G = sqrt|A| zeta_8^sig; the signature itself comes
from the Jordan splitting in `decompose`, which enumerates no elements.
"""

from __future__ import annotations

import math

import numpy as np

from ..exactkernel import CyclotomicNumber, reduce_int_counts
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
    return CyclotomicNumber(m, reduce_int_counts(m, counts).tolist())
