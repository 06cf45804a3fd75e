"""Counts of 8-divisible codes containing the all-ones word.

sigma_k(r) is the number of dimension-k binary codes of length r that
contain the all-ones word and whose weights all lie in 8Z.  Quotienting
by the all-ones word identifies these with (k-1)-dimensional subspaces
of F_2^(r-1) whose nonzero vectors stay inside a fixed candidate set;
the count is over subspaces, so the search walks each one exactly once
through its greedy-minimal basis: generator top bits strictly increase,
later generators avoid the pivot bits of earlier ones, and closure
against the running span is enforced at every step.  The deepest two
levels are counted in bulk as compatible pairs and triples instead of
being materialized.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from ..errors import LimitError, ValidationError

DEFAULT_LENGTH_CAP = 24

# largest candidate set the pair stage will hold as a dense matrix
_BATCH_SIDE = 2048


class _Budget:
    __slots__ = ("left",)

    def __init__(self, nodes):
        self.left = nodes

    def spend(self) -> bool:
        if self.left is None:
            return True
        if self.left <= 0:
            return False
        self.left -= 1
        return True


class _Exhausted(Exception):
    pass


def _tables(r):
    """Sorted candidate array, membership mask, and top-bit lookup."""
    q = r - 1
    pc16 = np.zeros(1 << 16, dtype=np.uint8)
    for i in range(16):
        pc16[1 << i: 1 << (i + 1)] = pc16[: 1 << i] + 1
    vals = np.arange(1 << q, dtype=np.int64)
    w = pc16[vals & 0xFFFF].astype(np.int64)
    if q > 16:
        w += pc16[vals >> 16]
    keep = (w > 0) & (w % 8 == 0)
    cands = vals[keep]
    memb = np.zeros(1 << q, dtype=bool)
    memb[cands] = True
    tops = np.zeros(1 << q, dtype=np.int64)
    for k in range(1, q):
        tops[1 << k: 1 << (k + 1)] = k
    return cands, memb, tops


def _children(c, v, vtop, span, memb):
    """Valid next generators after choosing v from candidate set c."""
    lo = int(np.searchsorted(c, np.int64(1) << (vtop + 1)))
    out = c[lo:]
    out = out[(out & (np.int64(1) << vtop)) == 0]
    if len(out) == 0:
        return out
    mask = memb[out ^ (v ^ int(span[0]))]
    for s in span[1:]:
        mask &= memb[out ^ (v ^ int(s))]
    return out[mask]


def _count_node(c, span, memb, tops, counts, depth, need, budget):
    """Accumulate subspace counts below one search node.

    c holds the valid extensions of the node's span; each contributes a
    subspace of dimension depth+1.  Deeper levels either recurse or, for
    the final two, are counted through the pair compatibility matrix.
    """
    counts[depth + 1] += len(c)
    if need <= depth + 1 or len(c) == 0:
        return
    if need >= depth + 4 or len(c) > _BATCH_SIDE:
        tc = tops[c]
        for j in range(len(c)):
            if not budget.spend():
                raise _Exhausted
            v = int(c[j])
            child = _children(c, v, int(tc[j]), span, memb)
            span2 = np.concatenate([span, span ^ v])
            _count_node(child, span2, memb, tops, counts, depth + 1, need, budget)
        return
    if not budget.spend():
        raise _Exhausted
    x = c[:, None] ^ c[None, :]
    t = tops[c]
    p = t[None, :] > t[:, None]
    p &= (c[None, :] & (np.int64(1) << t)[:, None]) == 0
    for s in span:
        p &= memb[x ^ int(s)]
    counts[depth + 2] += int(np.count_nonzero(p))
    if need < depth + 3:
        return
    for i in np.nonzero(p.sum(axis=1) >= 2)[0]:
        w_idx = np.nonzero(p[i])[0]
        first, second = np.nonzero(p[np.ix_(w_idx, w_idx)])
        if len(first) == 0:
            continue
        z = c[w_idx[first]] ^ c[w_idx[second]] ^ c[i]
        ok = memb[z]
        for s in span[1:]:
            ok &= memb[z ^ int(s)]
        counts[depth + 3] += int(np.count_nonzero(ok))


def _sweep(r, need, offset, step, budget):
    """Count subspaces of each dimension 1..need, striped over the
    depth-1 generators so independent workers can split the frontier."""
    counts = [0] * (need + 1)
    if need < 1:
        return counts, True
    cands, memb, tops = _tables(r)
    if len(cands) == 0:
        return counts, True
    try:
        if need <= 3 and len(cands) <= _BATCH_SIDE:
            if offset == 0:
                _count_node(cands, np.zeros(1, dtype=np.int64), memb, tops,
                            counts, 0, need, budget)
            return counts, True
        idx = range(offset, len(cands), step)
        counts[1] += len(idx)
        if need >= 2:
            for j in idx:
                if not budget.spend():
                    raise _Exhausted
                v = int(cands[j])
                child = _children(cands, v, int(tops[v]), np.zeros(1, dtype=np.int64), memb)
                span = np.array([0, v], dtype=np.int64)
                _count_node(child, span, memb, tops, counts, 1, need, budget)
    except _Exhausted:
        return counts, False
    return counts, True


def _sweep_worker(args):
    return _sweep(args[0], args[1], args[2], args[3], _Budget(None))


@dataclass(frozen=True)
class SigmaProfile:
    """sigma_k values for one length, with a completeness marker.

    counts lists (k, sigma_k) pairs for consecutive k starting at 1.
    When complete is False a node budget ran out and the values are
    partial lower bounds from the traversed prefix of the search.
    """

    length: int
    counts: tuple[tuple[int, int], ...]
    complete: bool

    def sigma(self, k: int) -> int:
        for kk, v in self.counts:
            if kk == k:
                return v
        if not self.complete:
            raise LimitError(f"partial profile does not determine sigma_{k}")
        # beyond the last computed level everything vanishes: either a
        # level came out empty (subspaces of higher dimension would
        # contain one of that dimension) or the quotient dimension caps k
        return 0


def _validated_length(r, cap):
    if not isinstance(r, int) or r < 1:
        raise ValidationError("length must be a positive integer")
    if cap is not None and r > cap:
        raise LimitError(f"length {r} exceeds the enumeration cap {cap}")


def sigma_profile(r: int, *, max_k: int | None = None, cap: int | None = DEFAULT_LENGTH_CAP,
                  node_budget: int | None = None, threads: int | None = None) -> SigmaProfile:
    """Profile sigma_k for k = 1..max_k, or until a level vanishes.

    Without max_k the search runs to exhaustion: once some sigma_k is 0
    every higher level is 0 too.  node_budget caps the number of search
    nodes and forces a serial run so the traversed prefix, and with it
    the partial counts, is deterministic.  threads (or the environment
    variable GENUSFORGE_THREADS) splits the depth-1 frontier across
    processes; partial counts are summed, so the result does not depend
    on the schedule.
    """
    _validated_length(r, cap)
    if max_k is not None and (not isinstance(max_k, int) or max_k < 1):
        raise ValidationError("max_k must be a positive integer")
    if r % 8:
        return SigmaProfile(r, ((1, 0),), True)
    if threads is None:
        threads = int(os.environ.get("GENUSFORGE_THREADS", "1"))
    need = min(5 if max_k is None else max_k - 1, r - 1)
    while True:
        if node_budget is not None or threads <= 1 or need < 2:
            counts, complete = _sweep(r, need, 0, 1, _Budget(node_budget))
        else:
            # imported here: most callers never start a pool, and the import
            # pulls in multiprocessing
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(max_workers=threads) as pool:
                parts = list(pool.map(_sweep_worker,
                                      [(r, need, w, threads) for w in range(threads)]))
            counts = [sum(col) for col in zip(*(p[0] for p in parts))]
            complete = all(p[1] for p in parts)
        counts[0] = 1
        if not complete or max_k is not None or need >= r - 1 or counts[need] == 0:
            break
        need += 1
    pairs = tuple((e + 1, n) for e, n in enumerate(counts))
    return SigmaProfile(r, pairs, complete)


def sigma_k(r: int, k: int, *, cap: int | None = DEFAULT_LENGTH_CAP,
            threads: int | None = None) -> int:
    """Number of k-dimensional 8-divisible codes of length r through 1."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError("dimension must be a positive integer")
    return sigma_profile(r, max_k=k, cap=cap, threads=threads).sigma(k)


def relative_mass_rhs(r: int, *, cap: int | None = DEFAULT_LENGTH_CAP,
                      threads: int | None = None) -> Fraction:
    """Exact value of (1/(2^r r!)) sum_k 2^(k(k-1)/2 + 1) sigma_k(r)."""
    if not isinstance(r, int) or r < 1 or r % 16:
        raise ValidationError("length must be a positive multiple of 16")
    profile = sigma_profile(r, cap=cap, threads=threads)
    total = sum(Fraction(2 ** (k * (k - 1) // 2 + 1) * v) for k, v in profile.counts)
    return total / (Fraction(2) ** r * factorial(r))
