"""Gauss sums of finite quadratic spaces and the signature mod 8.

The sum G = sum_x exp(pi i q(x)) is a count vector: how many x have
q(x)/2 = k/M mod 1, for each k.  By Milgram's formula G = sqrt|A| zeta_8^sig,
and `gauss_phase` reads that phase off the counts: squaring G is a cyclic
convolution in integers, which pins sig mod 4, and one certified interval
around G turned back to the real axis settles the sign, since the two
candidate phases differ by pi.  The interval is exact integer arithmetic
too: sums of integer tables of cos and sin whose error is proven (see
`exactkernel.cyclotomic._unit_circle`), with no floating point.  `gauss_sum` builds G itself as a
cyclotomic number for callers that want the value.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..errors import InternalError
from ..exactkernel import CyclotomicNumber, gauss_phase, reduce_int_counts
from .space import FiniteQuadraticSpace

_log = logging.getLogger(__name__)


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


def signature_mod8(s: FiniteQuadraticSpace, bits: int = 128) -> int:
    if s.order == 1:
        return 0
    m, counts = _phase_counts(s)
    phase = gauss_phase(m, counts, s.order, bits)
    if phase is None or (8 * phase).denominator != 1:
        raise InternalError(
            "Gauss sum squared is not |A| times a fourth root of unity; "
            "the form must be degenerate")
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("signature mod 8 of |A| = %d: integer square test over "
                   "zeta_%d, then an interval at %d bits", s.order, m, bits)
    return int(8 * phase)
