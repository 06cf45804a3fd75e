"""Oracles for code counting and greedy construction.

naive_sigma and greedy_scan work directly on words of F_2^r.  The subspace
search below (_tables to _sweep) is the count the library used before it
counted by orbits: it walks every subspace of F_2^(r-1) inside the
8-divisible candidate set through its greedy-minimal basis, and counts the
deepest two levels in bulk as compatible pairs and triples.  It shares no
code with the orbit count, so agreement between the two is meaningful.
"""

import numpy as np

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


# 16-bit popcounts, shared by the scans below
_LUT = np.zeros(1 << 16, dtype=np.int64)
for _i in range(16):
    _LUT[1 << _i: 1 << (_i + 1)] = _LUT[: 1 << _i] + 1


def _weights(words):
    return _LUT[words & 0xFFFF] + _LUT[(words >> 16) & 0xFFFF]


def naive_sigma(r, k):
    """Count k-dim codes containing the all-ones word with weights in 8Z
    by direct span enumeration; supports k <= 3."""
    allones = (1 << r) - 1
    words = np.arange(1 << r, dtype=np.int64)
    good = _weights(words) % 8 == 0
    if k == 1:
        return int(good[allones])
    if k == 2:
        # D = {0, 1, v, v + 1}; each code arises from v and from v + 1
        ok = good & good[words ^ allones]
        ok[0] = ok[allones] = False
        return int(np.count_nonzero(ok)) // 2 if good[allones] else 0
    if k == 3:
        if not good[allones]:
            return 0
        ok = good & good[words ^ allones]
        ok[0] = ok[allones] = False
        vs = words[ok]
        total = 0
        for v in vs:
            mask = ok[vs] & good[vs ^ v] & good[vs ^ v ^ allones]
            mask &= (vs != v) & (vs != (v ^ allones))
            total += int(np.count_nonzero(mask))
        # ordered (v, w) pairs per code: 6 choices of v, then 4 of w
        assert total % 24 == 0
        return total // 24
    raise NotImplementedError


def extension_count(r, code):
    """Words v of F_2^r outside the code (a list of its words) such that
    every word of code + v has weight in 8Z, by a scan of all 2^r words."""
    total = 0
    for start in range(0, 1 << r, 1 << 20):
        v = np.arange(start, min(start + (1 << 20), 1 << r), dtype=np.int64)
        ok = ~np.isin(v, code)
        for c in code:
            ok &= _weights(v ^ c) % 8 == 0
        total += int(np.count_nonzero(ok))
    return total


def sweep_sigma(r, k):
    """sigma_k(r) by the subspace search."""
    if r % 8:
        return 0
    counts, complete = _sweep(r, k - 1, 0, 1, _Budget(None))
    assert complete
    return 1 if k == 1 else counts[k - 1]


def gl_stabilizer_order(m, k):
    """Number of g in GL(k, 2) with m(g x) = m(x) for all x, by listing
    every k-tuple of images of the unit vectors."""
    cols = np.stack(np.unravel_index(np.arange((1 << k) ** k), (1 << k,) * k), axis=1)
    span = np.zeros((len(cols), 1), dtype=np.int64)
    for i in range(k):
        span = np.hstack([span, span ^ cols[:, i:i + 1]])
    invertible = (np.sort(span, axis=1) == np.arange(1 << k)).all(axis=1)
    return int(np.count_nonzero(invertible & (m[span] == m).all(axis=1)))


def support_stabilizer_order(m, k):
    """The same count, listing for k independent support points every
    k-tuple of support points as their images: an element of the
    stabilizer maps the support onto itself."""
    basis, span = [], np.zeros(1, dtype=np.int64)
    for x in np.flatnonzero(m):
        if x not in span:
            basis.append(x)
            span = np.concatenate([span, span ^ x])
    supp = np.flatnonzero(m)
    total = 0
    for start in range(0, len(supp) ** k, 1 << 14):
        pick = np.arange(start, min(start + (1 << 14), len(supp) ** k))
        images = supp[np.stack(np.unravel_index(pick, (len(supp),) * k), axis=1)]
        moved = np.zeros((len(pick), 1), dtype=np.int64)
        for i in range(k):
            moved = np.hstack([moved, moved ^ images[:, i:i + 1]])
        invertible = (np.sort(moved, axis=1) == np.arange(1 << k)).all(axis=1)
        total += int(np.count_nonzero(invertible & (m[moved] == m[span]).all(axis=1)))
    return total


def greedy_scan(n, d):
    """Literal lexicode definition: admit v when its minimum distance to
    the span of the admitted vectors is >= d."""
    code = [0]
    for v in range(1, 1 << n):
        if min((v ^ w).bit_count() for w in code) >= d:
            code = code + [v ^ w for w in code]
    return sorted(code)
