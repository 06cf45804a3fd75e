"""Short vectors and theta coefficients of positive definite even lattices.

Enumeration is Fincke-Pohst (Math. Comp. 44, 1985) on an exact
G = L D L^T, with (x, x) = sum_j d_j (x_j + c_j)^2 and centres c_j that
depend only on x_{j+1}, ..., x_{n-1}.  It runs one level at a time:
numpy bounds x_j for every node of level j at once, and the children
that fit form level j - 1, walked depth-first in chunks so memory stays
bounded.  Floats only prune, with every bound widened
outward, so a rounding error can admit extra candidates but never drop
one.  Only vectors whose last nonzero coordinate is positive are
generated, and every candidate's norm is recomputed in integer
arithmetic before it is counted.
"""

from __future__ import annotations

import logging
from fractions import Fraction

import numpy as np

from ..errors import (
    InternalError,
    LimitError,
    NotPositiveDefiniteError,
    ValidationError,
)
from .lattice import EvenLattice

_SLACK = 1e-6
# The depth-first walk keeps one chunk of each level alive, so at most
# rank * _CHUNK_ROWS nodes are held at once.
_CHUNK_ROWS = 1 << 12

_log = logging.getLogger(__name__)


def _ldl(gram) -> tuple[list[Fraction], list[list[Fraction]]]:
    """G = L D L^T with L unit lower triangular, D diagonal positive.

    Fraction-free (Bareiss, Math. Comp. 1968) elimination keeps every
    entry an integer: the pivots are the leading principal minors
    Delta_1, Delta_2, ..., and then d_j = Delta_{j+1} / Delta_j and
    L_ij = M_ij / Delta_{j+1}, with M_ij the entry below pivot j.
    """
    n = len(gram)
    m = [[int(x) for x in row] for row in gram]
    d = [Fraction(0)] * n
    low = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    prev = 1
    for j in range(n):
        piv = m[j][j]
        if piv <= 0:
            raise NotPositiveDefiniteError(
                f"Gram matrix is not positive definite (pivot {j})")
        d[j] = Fraction(piv, prev)
        for i in range(j + 1, n):
            low[i][j] = Fraction(m[i][j], piv)
            for t in range(j + 1, n):
                m[i][t] = (piv * m[i][t] - m[i][j] * m[j][t]) // prev
        prev = piv
    return d, low


def _enumerate(l: EvenLattice, max_norm: int, store: bool):
    """Counts {norm: #vectors} for 0 < norm <= max_norm, plus the vectors
    themselves when store is set.  Counts and stored vectors include both
    signs of each +/- pair."""
    n = l.rank
    d, low = _ldl(l.gram)
    df = [float(x) for x in d]
    lf = np.array([[float(x) for x in row] for row in low])
    gnp = np.array(l.gram, dtype=np.int64)
    counts: dict[int, int] = {}
    kept: list[np.ndarray] = []
    nodes = [0] * (n + 1)  # nodes[j + 1] at level j; nodes[0] leaf candidates
    # Ancestry of the chunk being expanded at each level: a node of level
    # j < n - 1 has x_{j+1} = val[j] and its parent in row up[j] of level j + 1.
    up, val = [None] * n, [None] * n

    def leaves(idx: np.ndarray, v: np.ndarray) -> None:
        nodes[0] += len(v)
        cand = np.empty((len(v), n), dtype=np.int64)
        cand[:, 0] = v
        for j in range(n - 1):
            cand[:, j + 1] = val[j][idx]
            idx = up[j][idx]
        norms = np.einsum("ij,ij->i", cand @ gnp, cand)
        keep = (norms > 0) & (norms <= max_norm)
        vals, reps = np.unique(norms[keep], return_counts=True)
        for v, r in zip(vals.tolist(), reps.tolist()):
            if v % 2:
                raise InternalError("odd vector norm in an even lattice")
            counts[v] = counts.get(v, 0) + 2 * r
        if store and keep.any():
            kept.append(cand[keep])

    def level(j: int, c: np.ndarray, rem: np.ndarray, zero_prefix: np.ndarray) -> None:
        # c holds each node's centres c_0..c_j, rem its remaining norm.
        nodes[j + 1] += len(rem)
        radius = np.sqrt(np.maximum(rem, 0.0) / df[j]) + 1e-9
        lo = np.ceil(-c[:, j] - radius)
        hi = np.floor(-c[:, j] + radius)
        lo = np.where(zero_prefix, np.maximum(lo, 0.0), lo).astype(np.int64)
        width = np.maximum(hi.astype(np.int64) - lo + 1, 0)
        ends = np.cumsum(width)
        # Children are numbered consecutively, parent by parent; a chunk of
        # child numbers finds its parents by searching the running counts.
        for start in range(0, int(width.sum()), _CHUNK_ROWS):
            pos = np.arange(start, min(start + _CHUNK_ROWS, ends[-1]))
            idx = np.searchsorted(ends, pos, side="right")
            v = lo[idx] + pos - (ends[idx] - width[idx])
            y = v + c[idx, j]
            rem2 = rem[idx] - df[j] * y * y
            fit = rem2 >= -_SLACK
            idx, v = idx[fit], v[fit]
            if j == 0:
                leaves(idx, v)
            else:
                up[j - 1], val[j - 1] = idx, v
                level(j - 1, c[idx, :j] + v[:, None] * lf[j, :j], rem2[fit],
                      zero_prefix[idx] & (v == 0))

    if max_norm > 0:
        level(n - 1, np.zeros((1, n)), np.array([float(max_norm)]), np.array([True]))
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("short vectors of norm <= %d in rank %d: nodes per level "
                   "(top first) %s, %d leaf candidates", max_norm, n,
                   nodes[:0:-1], nodes[0])
    if not store:
        return counts, None
    half = np.concatenate(kept) if kept else np.empty((0, n), dtype=np.int64)
    return counts, np.concatenate([half, -half])


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
    if k > cap:
        raise LimitError(f"theta term count {k} exceeds cap {cap}")
    counts, _ = _enumerate(l, 2 * k, store=False)
    return (1,) + tuple(counts.get(2 * m, 0) for m in range(1, k + 1))
