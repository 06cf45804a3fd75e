"""Short vectors and theta coefficients of positive definite even lattices.

`theta_coefficients` splits the Gram matrix into its orthogonal components
(`_blocks`) and enumerates each distinct block once: the theta series of
L + M is theta_L theta_M, multiplied out exactly in integers, once per
copy of a block.  `root_system` (`roots`) splits the same way.  A Gram
with one component, and every `short_vectors` call, enumerate the whole
lattice.

Enumeration is Fincke-Pohst (Math. Comp. 44, 1985) on G = L D L^T, with
(x, x) = sum_j d_j (x_j + c_j)^2 and centres c_j = sum_{s>j} L_sj x_s
that depend only on x_{j+1}, ..., x_{n-1}.  D and L come from the
elimination the lattice kept at construction (0-based here):
d_j = Delta_{j+1} / Delta_j and L_sj = M_js / Delta_{j+1}, each a correctly
rounded quotient of two integers.  A positive definite Gram has no
vanishing pivot, so that elimination applied no congruence and its factors
are those of G; on any other Gram some minor is at most 0, and the
enumeration refuses it.  It runs one level at a time: numpy
bounds x_j for every node of level j at once, and the children that fit
form level j - 1, walked depth-first in chunks so memory stays bounded.
Only vectors whose last nonzero coordinate is positive are generated.

Norms are exact integers.  A node of level j carries its partial norm
(x, x) over the fixed coordinates x_{j+1}, ..., x_{n-1} and the vector
gx = G x over coordinates 0, ..., j.  Fixing x_j = v adds
v (2 gx_j + v G_jj) to the norm and v G_jt to gx_t, so a leaf's norm costs
one multiply-add, and coordinates are rebuilt only for the leaves kept.
Both are int64 and may wrap.  That is harmless: arithmetic mod 2^64 is a
ring map, so a wrapped norm is the true norm mod 2^64, and the true norm
of a leaf that passes the float pruning lies in [0, max_norm + 2E] (E as
below), inside [0, 2^62) or the enumeration raises LimitError.

Floats only prune, with a proven widening.  Write u = 2^-53 and
tau = 2 (n + 4) u, so tau >= 10 u.  Each node of a chunk of level j holds
a float r for its remaining budget R = max_norm - sum_{t>j} d_t (x_t + c_t)^2,
and the chunk holds one E with |r - R| <= E for all its nodes; the root
starts at (max_norm, tau max_norm).  Since R <= max_norm and a kept node
has r >= -E, |r| <= max_norm + E.

* Centres.  The float centre c~_j sums at most n - 1 terms x_s L~_sj,
  with L~_sj = L_sj (1 + theta), |theta| <= u, so
  |c~_j - c_j| <= gamma_{n+1} sum_s |L_sj| |x_s| (Higham, *Accuracy and
  Stability of Numerical Algorithms*, 2002, section 3.1), and
  gamma_{n+1} = (n + 1) u / (1 - (n + 1) u) < tau / 2.  Every ancestor
  coordinate of a chunk of level j was fixed in one call of level s > j,
  which records a bound m_s on |x_s| for all its children, so
  e_j = tau sum_{s>j} |L~_sj| m_s bounds the error of every c~_j.
* Interval.  A child x_j = v completes to a vector of norm <= max_norm
  only if d_j (v + c_j)^2 <= R <= r + E, so only if
  |v + c~_j| <= sqrt((r + E) / d_j) + e_j.  The interval is
  -c~_j -/+ rho with rho = (sqrt(max(r + E, 0) / d~_j) + e_j) (1 + tau)
  + tau |c~_j|.  The factor covers the sum r + E, d~_j, the quotient, the
  root and the sums in rho, at most 6 u; the last term and the rest of
  the factor cover the rounding of -c~_j -/+ rho, at most u (|c~_j| + rho).
* Remainder.  So every child has |v + c~_j| and |y~| = |fl(v + c~_j)| at
  most Y = (1 + tau) max rho + tau max |c~_j|, maxima over the chunk, and
  |v| <= Y + max |c~_j|, which is m_j.  The true y = v + c_j is within
  delta = e_j + tau Y of y~, so |d_j y~^2 - d_j y^2| <= d_j delta (2Y + delta).
  A child keeps r' = r - d~_j y~^2, and its chunk
  E' = (E + d~_j delta (2Y + delta) + tau (2 d~_j Y^2 + max_norm + E)) (1 + tau).
  The tau terms cover d~_j, the two products, the difference
  (u |r - d~_j y~^2|) and the rounding of E' itself, so |r' - R'| <= E'.
  A child with r' < -E' has R' < 0 and is pruned; no child with R' >= 0
  is.  A leaf kept this way has R >= r - E >= -2E, so its norm
  max_norm - R is at most max_norm + 2E, as the int64 argument needs.

Floats hold integers exactly below 2^53, so the enumeration raises
LimitError when |c~_j| + rho reaches 2^52, and likewise when a Gram entry
passes 64 bits.
"""

from __future__ import annotations

import logging

import numpy as np

from ..errors import (
    InternalError,
    LimitError,
    NotPositiveDefiniteError,
    ValidationError,
    check_cap,
)
from .lattice import EvenLattice, IntMatrix

# The depth-first walk keeps one chunk of each level alive, so at most
# rank * _CHUNK_ROWS nodes are held at once.
_CHUNK_ROWS = 1 << 12

_log = logging.getLogger(__name__)


def _minors(l: EvenLattice) -> list[int]:
    """The leading principal minors Delta_1, ..., Delta_n, all positive, or
    NotPositiveDefiniteError naming the first that is not."""
    minors = [row[0] for row in l.elimination]
    bad = next((j for j, m in enumerate(minors) if m <= 0), None)
    if bad is not None:
        raise NotPositiveDefiniteError(
            f"Gram matrix is not positive definite (pivot {bad})")
    return minors


def _factors(l: EvenLattice) -> tuple[np.ndarray, np.ndarray]:
    """d and L of G = L D L^T in floats; low[s, j] = L_sj for s > j."""
    rows = l.elimination
    minors = _minors(l)
    n = l.rank
    low = np.zeros((n, n))
    for j, row in enumerate(rows):
        low[j + 1:, j] = [x / row[0] for x in row[1:]]
    return np.array([m / p for m, p in zip(minors, [1] + minors)]), low


def _enumerate(l: EvenLattice, max_norm: int, store: bool):
    """Counts {norm: #vectors} for 0 < norm <= max_norm, plus the vectors
    themselves as an int64 array when store is set.  Counts and stored
    vectors include both signs of each +/- pair."""
    n = l.rank
    try:
        d, low = _factors(l)
        g = np.array(l.gram, dtype=np.int64)
    except OverflowError:
        raise LimitError("Gram matrix exceeds the 64-bit range of the "
                         "short-vector enumeration") from None
    abs_low = np.abs(low)
    tau = 2 * (n + 4) * 2.0 ** -53
    counts: dict[int, int] = {}
    kept: list[np.ndarray] = []
    nodes = [0] * (n + 1)  # nodes[j + 1] at level j; nodes[0] leaf candidates
    # Ancestry of the chunk being expanded at each level: a node of level
    # j < n - 1 has x_{j+1} = val[j] and its parent in row up[j] of level j + 1.
    up, val = [None] * n, [None] * n
    most = np.zeros(n)  # most[s]: m_s, a bound on |x_s| in the current chunk

    def leaves(idx: np.ndarray, v: np.ndarray, norms: np.ndarray) -> None:
        nodes[0] += len(v)
        keep = (norms > 0) & (norms <= max_norm)
        vals, reps = np.unique(norms[keep], return_counts=True)
        for m, r in zip(vals.tolist(), reps.tolist()):
            if m % 2:
                raise InternalError("odd vector norm in an even lattice")
            counts[m] = counts.get(m, 0) + 2 * r
        if store and keep.any():
            idx = idx[keep]
            cand = np.empty((len(idx), n), dtype=np.int64)
            cand[:, 0] = v[keep]
            for j in range(n - 1):
                cand[:, j + 1] = val[j][idx]
                idx = up[j][idx]
            kept.append(cand)

    def level(j: int, c: np.ndarray, r: np.ndarray, err: float,
              zero_prefix: np.ndarray, norm: np.ndarray, gx: np.ndarray) -> None:
        # c holds each node's centres c_0..c_j, r its remaining norm, err
        # the chunk's bound on the error of r, and norm and gx each node's
        # exact partial norm and (G x)_0..j.
        nodes[j + 1] += len(r)
        e = tau * (abs_low[j + 1:, j] @ most[j + 1:])
        centre = c[:, j]
        size = np.abs(centre)
        radius = ((np.sqrt(np.maximum(r + err, 0.0) / d[j]) + e) * (1 + tau)
                  + tau * size)
        largest, farthest = radius.max(), size.max()
        if largest + farthest >= 2.0 ** 52:
            raise LimitError("short-vector coordinates pass the exact float range")
        lo = np.ceil(-centre - radius)
        hi = np.floor(-centre + radius)
        lo = np.where(zero_prefix, np.maximum(lo, 0.0), lo).astype(np.int64)
        width = np.maximum(hi.astype(np.int64) - lo + 1, 0)
        ends = np.cumsum(width)
        if not ends[-1]:
            return
        # Every child has |y| <= top, and |r| <= max_norm + err.
        top = (1 + tau) * largest + tau * farthest
        delta = e + tau * top
        most[j] = top + farthest
        err = (err + d[j] * delta * (2 * top + delta)
               + tau * (2 * d[j] * top * top + max_norm + err)) * (1 + tau)
        if j == 0 and max_norm + 2 * err >= 2.0 ** 62:
            raise LimitError("rounding bound of the short-vector enumeration "
                             "passes the int64 range")
        first = lo - ends + width
        # Each level's frame stays alive while the levels below it run, so
        # it keeps only what its own loop reads.
        del size, radius, lo, hi, width
        # Children are numbered consecutively, parent by parent; a chunk of
        # child numbers finds its parents by searching the running counts.
        for start in range(0, int(ends[-1]), _CHUNK_ROWS):
            pos = np.arange(start, min(start + _CHUNK_ROWS, ends[-1]))
            idx = np.searchsorted(ends, pos, side="right")
            v = first[idx] + pos
            y = v + centre[idx]
            r2 = r[idx] - d[j] * y * y
            fit = r2 >= -err
            if not fit.any():
                continue
            idx, v, r2 = idx[fit], v[fit], r2[fit]
            del pos, y, fit
            norm2 = norm[idx] + v * (2 * gx[idx, j] + v * g[j, j])
            if j == 0:
                leaves(idx, v, norm2)
            else:
                up[j - 1], val[j - 1] = idx, v
                level(j - 1, c[idx, :j] + v[:, None] * low[j, :j], r2, err,
                      zero_prefix[idx] & (v == 0), norm2,
                      gx[idx, :j] + v[:, None] * g[j, :j])

    if max_norm > 0:
        level(n - 1, np.zeros((1, n)), np.array([float(max_norm)]),
              tau * max_norm, np.array([True]),
              np.zeros(1, dtype=np.int64), np.zeros((1, n), dtype=np.int64))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("short vectors of norm <= %d in rank %d: nodes per level "
                   "(top first) %s, %d leaf candidates", max_norm, n,
                   nodes[:0:-1], nodes[0])
    if not store:
        return counts, None
    half = np.concatenate(kept) if kept else np.empty((0, n), dtype=np.int64)
    return counts, np.concatenate([half, -half])


def _blocks(l: EvenLattice) -> list[tuple[EvenLattice, int]]:
    """The distinct Gram blocks of the orthogonal components of l, each with
    the number of components that carry it; [(l, 1)] if l has one component.

    A component is a connected part of the graph on the basis whose edges
    are the nonzero off-diagonal Gram entries, and its block is the Gram on
    its indices in increasing order.  Positive definiteness is decided on
    l itself first, so a refusal names the pivot of l, not of a block.
    """
    _minors(l)
    g, n = l.gram, l.rank
    seen = [False] * n
    found: dict[IntMatrix, int] = {}
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        comp, stack = [start], [start]
        while stack:
            for j, x in enumerate(g[stack.pop()]):
                if x and not seen[j]:
                    seen[j] = True
                    comp.append(j)
                    stack.append(j)
        if len(comp) == n:
            return [(l, 1)]
        comp.sort()
        block = tuple(tuple(g[i][j] for j in comp) for i in comp)
        found[block] = found.get(block, 0) + 1
    return [(EvenLattice(block), copies) for block, copies in found.items()]


def short_vectors(l: EvenLattice, max_norm: int) -> list[tuple[int, ...]]:
    """All nonzero v with (v, v) <= max_norm, both signs included."""
    if not isinstance(max_norm, int) or isinstance(max_norm, bool) or max_norm < 0:
        raise ValidationError("max_norm must be a nonnegative integer")
    _, vectors = _enumerate(l, max_norm, store=True)
    return sorted(map(tuple, vectors.tolist()))


def theta_coefficients(l: EvenLattice, k: int, cap: int = 64) -> tuple[int, ...]:
    """(c_0, ..., c_k) with c_m the number of vectors of norm 2m."""
    if not isinstance(k, int) or isinstance(k, bool) or k < 0:
        raise ValidationError("theta needs a nonnegative term count")
    check_cap(cap)
    if k > cap:
        raise LimitError(f"theta term count {k} exceeds cap {cap}")
    series = [1] + [0] * k
    for block, copies in _blocks(l):
        counts, _ = _enumerate(block, 2 * k, store=False)
        factor = [1] + [counts.get(2 * m, 0) for m in range(1, k + 1)]
        for _ in range(copies):
            series = [sum(series[i] * factor[m - i] for i in range(m + 1))
                      for m in range(k + 1)]
    return tuple(series)
