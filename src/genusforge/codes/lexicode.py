"""Greedy lexicographic codes.

The code is what the literal greedy scan produces: walk the integers
0..2^n - 1 (bit i is coordinate i, so the scan is least significant
position first) and admit a vector when its Hamming distance to the
span of the admitted vectors is at least d.  The admitted set is linear,
so the scan is equivalent to tracking cosets: within the block
[2^t, 2^(t+1)) at most one vector joins, namely 2^t + u for the
smallest u whose coset of the current code has minimum weight >= d - 1
(the leading bit contributes the remaining 1).

The cosets of the current code inside [0, 2^t) are three arrays sorted
by res, the canonical residue (every pivot bit of the basis clear):
res, leader (the least element) and weight (the least weight).  Step t
doubles them to res | 2^t, leader | 2^t, weight + 1; every new residue
is at least 2^t, so appending keeps the order.  When a vector best
joins, each new coset x | 2^t merges into an old one: reduction modulo
the basis is linear and x has every old pivot bit clear, so x | 2^t
reduces to x ^ shift with shift = reduce_old(best) ^ 2^t.  The old
leader is below 2^t and so the smaller one, and the merge is one
gather: each old coset y keeps its leader and takes the weight
min(weight[y], weight[y ^ shift] + 1), with y ^ shift found by binary
search in res.  The table is capped at _TABLE_CAP cosets.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from ..errors import InternalError, LimitError, ValidationError
from .binary import BinaryCode, build_code

_TABLE_CAP = 1 << 22

_log = logging.getLogger(__name__)


def _reduce(word, basis):
    # basis rows keyed by distinct top bits, highest first
    for top, b in basis:
        if word >> top & 1:
            word ^= b
    return word


def lexicode(n: int, d: int) -> BinaryCode:
    """Greedy lexicographic code of length n and design distance d."""
    if any(isinstance(v, bool) or not isinstance(v, int) for v in (n, d)):
        raise ValidationError("length and distance must be integers")
    if not 1 <= n <= 64:
        raise ValidationError("length must be between 1 and 64")
    if d < 1:
        raise ValidationError("distance must be at least 1")
    start = time.perf_counter()
    basis: list[tuple[int, int]] = []  # (top bit, row), highest top first
    res = np.zeros(1, dtype=np.uint64)
    leader = np.zeros(1, dtype=np.uint64)
    weight = np.zeros(1, dtype=np.int64)
    for t in range(n):
        if 2 * len(res) > _TABLE_CAP:
            raise LimitError("coset table exceeds the supported size")
        bit = np.uint64(1 << t)
        joins = leader[weight >= d - 1]
        if not len(joins):
            res = np.concatenate([res, res | bit])
            leader = np.concatenate([leader, leader | bit])
            weight = np.concatenate([weight, weight + 1])
            continue
        best = int(joins.min()) | 1 << t
        shift = np.uint64(_reduce(best, basis) ^ 1 << t)
        partner = np.searchsorted(res, res ^ shift).clip(max=len(res) - 1)
        if not (res[partner] == res ^ shift).all():
            raise InternalError("a merged coset is missing from the lexicode table")
        weight = np.minimum(weight, weight[partner] + 1)
        basis.insert(0, (t, best))
    code = build_code(n, [b for _, b in basis])
    assert code.dim == len(basis), "greedy output failed the linearity check"
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("lexicode(%d, %d): %d rows admitted, largest coset table %d, %.3f s",
                   n, d, len(basis), len(res), time.perf_counter() - start)
    return code
