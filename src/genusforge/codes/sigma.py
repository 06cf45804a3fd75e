"""Counts of 8-divisible codes containing the all-ones word, by orbits.

sigma_k(r) counts the k-dimensional binary codes of length r through the
all-ones word with every weight in 8Z: a sum of orbit sizes r!/|Aut C| over
classes up to coordinate permutation (McKay, J. Algorithms 1998; Betsumiya
and Munemasa, arXiv:1012.4134).  A code with a basis is a table m: F_2^k -> N
of column counts, bit 0 being the all-ones word; |Aut C| = prod m(x)! times
|Stab_GL(k,2)(m)|, the product of the orbit sizes along the canonical path
of a search over bases drawn from the support, never over coordinates.

A word v extends C, up to permutations inside column classes, as a count
vector 0 <= a <= m of weight prod C(m(x), a_x); it is valid when wt(v),
wt(v & b_i) and wt(v & b_i & b_j) vanish mod 8, 4 and 2 over basis words
b_i.  With ext(C) the weight of the valid vectors off C, and 2^k - 1
subcodes through the all-ones word in a (k+1)-code, each met by 2^k words,
sigma_{k+1} = sum over classes C of (r!/|Aut C|) ext(C) / (2^k (2^k - 1)).

Levels below the last one requested are classified depth first, one child
per stabilizer orbit put in canonical form and each new class expanded at
once; the orbits of each classified level must add up to its double count,
or InternalError.  node_budget bounds the extension half-vectors examined
plus the inner nodes of the canonical-form searches; when it runs out
every level keeps the lower bound of the traversed prefix.  The count runs in one process:
threads and GENUSFORGE_THREADS are accepted and have no effect.
"""

from __future__ import annotations

import logging
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

import numpy as np

from ..errors import InternalError, LimitError, ValidationError

DEFAULT_LENGTH_CAP = 24

_log = logging.getLogger(__name__)


class _Exhausted(Exception):
    pass


def _orbit_labels(perms, n):
    """Least point of each orbit of the group generated by perms."""
    lab = np.arange(n)
    while True:
        new = lab
        for p in perms:
            new = np.minimum(new, new[p])
        if np.array_equal(new, lab):
            return lab
        lab = new


class _Canon:
    """Canonical table of m, |Stab(m)| and generators of Stab(m).

    Tables are uint8, so their bytes compare lexicographically.  A search
    node is the span of a partial basis, span[u] = L(u): first a support
    point, then directions c with that point + c in the support.
    """

    def __init__(self, m, k, walk):
        self.m, self.k, self.walk, self.best, self.gens, self.seen = m, k, walk, None, [], {}
        self._search(np.zeros(1, dtype=np.int64))
        self.table = m[self.best]
        self.stab = prod(self._orbit(d) for d in range(k))

    def _options(self, span):
        """Next basis vectors below a node, with the table block each adds."""
        c = np.flatnonzero(self.m) ^ (span[1] if len(span) > 1 else 0)
        free = np.ones(len(self.m), dtype=bool)
        free[span] = False
        c = c[free[c]]
        return c, self.m[span ^ c[:, None]]

    def _labels(self, span):
        """Orbit labels under the generators found so far that fix span."""
        key = (span.tobytes(), len(self.gens))
        if key not in self.seen:
            fix = [g for g in self.gens if (g[span] == span).all()]
            self.seen[key] = _orbit_labels(fix, len(self.m))
        return self.seen[key]

    def _search(self, span):
        """Depth first for the greatest leaf.  A leaf equal to the best one
        gives an automorphism, and the search goes back to the last node the
        two paths share: the rest of that subtree is the image of one searched."""
        d = len(span).bit_length() - 1
        best = b"" if self.best is None else self.m[self.best[: 2 * len(span)]].tobytes()
        if d == self.k:
            if self.m[span].tobytes() > best:
                self.best = span
                return None
            if self.m[span].tobytes() < best:
                return None
            g = np.empty_like(span)
            g[self.best] = span
            self.gens.append(g)
            return int(np.argmax(self.best[1 << np.arange(d)] != span[1 << np.arange(d)]))
        if self.walk.take(1) < 1:
            raise _Exhausted
        cands, blocks = self._options(span)
        top = blocks[np.lexsort(blocks.T[::-1])[-1]]
        if np.append(self.m[span], top).tobytes() < best:
            return None
        done = []
        for c in cands[(blocks == top).all(axis=1)]:
            if done and self._labels(span)[c] in self._labels(span)[done]:
                continue
            back = self._search(np.append(span, span ^ c))
            done.append(c)
            if back is not None and back < d:
                return back
        return None

    def _orbit(self, d):
        """Orbit of canonical basis vector d under the pointwise stabilizer
        of those before it: the options whose subtree holds a canonical leaf."""
        span = self.best[: 1 << d]
        cands, blocks = self._options(span)
        cands = cands[(blocks == self.table[1 << d: 2 << d]).all(axis=1)]
        inside, outside = [self.best[1 << d]], []
        for c in cands:
            if self._labels(span)[c] not in self._labels(span)[inside + outside]:
                found = len(self.gens)
                self._search(np.append(span, span ^ c))
                (inside if len(self.gens) > found else outside).append(c)
        return int(np.isin(self._labels(span)[cands], self._labels(span)[inside]).sum())


def _grid(mult):
    """Every count vector below mult, in np.ravel_multi_index order, with
    its weight prod C(mult, a)."""
    rows, w = np.zeros((1, 0), dtype=np.int64), np.ones(1, dtype=np.int64)
    for mx in mult:
        rows = np.hstack([np.repeat(rows, mx + 1, axis=0),
                          np.tile(np.arange(mx + 1), len(rows))[:, None]])
        w = np.outer(w, [comb(int(mx), a) for a in range(mx + 1)]).ravel()
    return rows, w


def _extensions(m, k, walk, keep):
    """ext(C) over the half-vectors the budget allows, whether that was all,
    and the indices of the valid count vectors off C if keep.  Each column
    class is cut in two, a = a1 + a2, and the halves a1 are looked up
    against the halves a2 by residue (weights multiply by Vandermonde)."""
    if k > 10:
        raise LimitError("residues of codes above dimension 10 exceed 64 bits")
    pts = np.flatnonzero(m)
    mult = m[pts].astype(np.int64)
    bits = pts[:, None] >> np.arange(1, k) & 1
    i, j = np.triu_indices(k - 1, 1)
    coef = np.hstack([np.ones_like(pts)[:, None], bits, bits[:, i] & bits[:, j]])
    # residues mod 8, 4 and 2, packed as bit fields of one integer
    width = np.array([3] + [2] * (k - 1) + [1] * len(i))
    mods, shift = 1 << width, np.cumsum(width) - width
    # odd classes give their larger part to the two halves in turn
    half = mult // 2 + mult % 2 * (np.cumsum(mult % 2) % 2)
    (r1, w1), (r2, w2) = _grid(half), _grid(mult - half)
    n = walk.take(len(r1), k)
    l1 = (r1[:n] @ coef % mods << shift).sum(axis=1)
    l2 = (-(r2 @ coef) % mods << shift).sum(axis=1)
    order = np.argsort(l2, kind="stable")
    lo, hi = np.searchsorted(l2[order], l1), np.searchsorted(l2[order], l1, "right")
    acc = np.append(0, np.cumsum(w2[order]))
    # the 2^k words of C are valid with weight 1; drop those joined so far
    words = np.bitwise_count(np.arange(1 << k)[:, None] & pts) & 1
    seen = np.ravel_multi_index((words * half).T, half + 1) < n
    ext = int(w1[:n] @ (acc[hi] - acc[lo])) - int(seen.sum())
    if not keep or n < len(r1):
        return ext, n == len(r1), np.zeros(0, dtype=np.int64)
    cnt = hi - lo
    pick = np.arange(cnt.sum()) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)
    kids = np.repeat(r1, cnt, axis=0) + r2[order[pick]]
    keys = np.unique(np.ravel_multi_index(kids.T, mult + 1))
    return ext, True, keys[~np.isin(keys, np.ravel_multi_index((words * mult).T, mult + 1))]


def _orbit_reps(keys, mult, pts, gens):
    """The count vector of least index in each orbit of the stabilizer."""
    kids = np.stack(np.unravel_index(keys, mult + 1), axis=-1)
    maps = []
    for g in gens:
        img = np.empty_like(kids)
        img[:, np.searchsorted(pts, g[pts])] = kids
        maps.append(np.searchsorted(keys, np.ravel_multi_index(img.T, mult + 1)))
    return kids[_orbit_labels(maps, len(kids)) == np.arange(len(kids))]


class _Walk:
    """Depth-first expansion of code classes under a work budget."""

    def __init__(self, r, classify, budget):
        self.r, self.classify, self.left = r, classify, budget
        self.double = defaultdict(int)    # level k + 1: sum of orbit * ext at level k
        self.classes = defaultdict(dict)  # level: canonical bytes -> (table, |Aut|, gens)
        self.vectors, self.secs = defaultdict(int), defaultdict(float)
        self.level, self.clock = 1, time.perf_counter()
        self.root = (np.array([0, r], dtype=np.uint8), factorial(r), [])
        self.classes[1][self.root[0].tobytes()] = self.root

    def take(self, n, k=None):
        """The part of n work units the budget allows (half-vectors of level k)."""
        if self.left is not None:
            n = min(n, self.left)
            self.left -= n
        self.vectors[k] += n
        return n

    def charge(self, level):
        """Book the time since the last call to the level expanded then."""
        now = time.perf_counter()
        self.secs[self.level] += now - self.clock
        self.level, self.clock = level, now

    def expand(self, k, table, aut, gens):
        self.charge(k)
        ext, whole, keys = _extensions(table, k, self, k < self.classify)
        self.double[k + 1] += factorial(self.r) // aut * ext
        if not whole:
            raise _Exhausted
        pts = np.flatnonzero(table)
        for a in _orbit_reps(keys, table[pts], pts, gens):
            child = np.zeros(2 << k, dtype=np.uint8)
            child[pts], child[pts | 1 << k] = table[pts] - a, a
            c = _Canon(child, k + 1, self)
            if c.table.tobytes() not in self.classes[k + 1]:
                inv = np.argsort(c.best)
                new = (c.table, prod(factorial(int(v)) for v in c.table) * c.stab,
                       [inv[g[c.best]] for g in c.gens])
                self.classes[k + 1][c.table.tobytes()] = new
                self.expand(k + 1, *new)
                self.charge(k)

    def sigma(self, k):
        return self.double[k] // ((1 << k - 1) * ((1 << k - 1) - 1)) if k > 1 else 1


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
        # past an empty level everything vanishes: a larger code would
        # contain a code of that level
        if self.complete and (self.counts[-1][1] == 0 or k > self.length):
            return 0
        raise LimitError(f"this profile does not determine sigma_{k}")


def _validated_length(r, cap):
    if not isinstance(r, int) or r < 1:
        raise ValidationError("length must be a positive integer")
    if cap is not None and r > cap:
        raise LimitError(f"length {r} exceeds the enumeration cap {cap}")


def sigma_profile(r: int, *, max_k: int | None = None, cap: int | None = DEFAULT_LENGTH_CAP,
                  node_budget: int | None = None, threads: int | None = None) -> SigmaProfile:
    """Profile sigma_k for k = 1..max_k, or until a level vanishes.

    node_budget caps the extension half-vectors examined plus the inner
    nodes of the canonical-form searches; the order is fixed, so partial
    counts are deterministic.  threads (and GENUSFORGE_THREADS) have no effect.
    """
    _validated_length(r, cap)
    if max_k is not None and (not isinstance(max_k, int) or max_k < 1):
        raise ValidationError("max_k must be a positive integer")
    if r % 8:
        return SigmaProfile(r, ((1, 0),), True)
    if r > 62 and max_k != 1:
        raise LimitError("extension weights beyond length 62 exceed 64 bits")
    walk = _Walk(r, r if max_k is None else max_k - 1, node_budget)
    complete = True
    try:
        if max_k != 1:
            walk.expand(1, *walk.root)
    except _Exhausted:
        complete = False
    walk.charge(0)
    if _log.isEnabledFor(logging.DEBUG):
        for k in sorted(walk.secs):
            _log.debug("sigma_k(%d) level %d: %d classes, %d extension vectors, double "
                       "count %d, %.3f s", r, k, len(walk.classes[k]), walk.vectors[k],
                       walk.double[k + 1], walk.secs[k])
    for k in range(2, max(walk.double, default=1) + 1) if complete else ():
        orbits = sum(factorial(r) // c[1] for c in walk.classes[k].values())
        if walk.double[k] % ((1 << k - 1) * ((1 << k - 1) - 1)):
            raise InternalError(f"double count at level {k} does not divide")
        if k <= walk.classify and orbits != walk.sigma(k):
            raise InternalError(f"class orbits at level {k} miss the double count")
    last = max_k or next(k for k in range(2, r + 2) if walk.sigma(k) == 0)
    return SigmaProfile(r, tuple((k, walk.sigma(k)) for k in range(1, last + 1)), complete)


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
