"""Exact verification of the modular-group relations.

All four relations are stated in rescaled form so that neither sqrt(D)
nor the cube root gamma ever appears:

  (i)   s_tilde^2 = D * P        (P the charge-conjugation permutation)
  (ii)  P^2 = 1
  (iii) s_tilde^2 T = T s_tilde^2
  (iv)  (s_tilde T)^3 = (sum_i theta_i dim_i^2) * s_tilde^2

Every entry is a list of exponents over one root of unity zeta_M (see
`data`), so each matrix product becomes a count of exponent sums mod M,
one per choice of a term in each factor, reduced to the power basis with
one integer matrix multiplication.  Pointed data have one term per entry
and a term axis of length 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exactkernel import euler_phi, reduce_int_counts
from .data import ModularData


@dataclass(frozen=True)
class RelationReport:
    """First failing relation (one of "i".."iv"), or all-clear."""

    failed: str | None
    detail: str

    @property
    def ok(self) -> bool:
        return self.failed is None

    def __repr__(self) -> str:
        return "RelationReport(ok)" if self.ok else \
            f"RelationReport(failed={self.failed}: {self.detail})"


_PASS = RelationReport(None, "")


# The counts below take rows i in chunks so that the keyed and gathered
# temporaries (n^2 w^2 and n^2 w M entries per row, for w terms an entry)
# stay near this many entries; all rows of a pointed table at once would
# need n^3 M, 2^27 at n = 64, M = 512.
_CHUNK = 1 << 20


def _pair_counts(left: np.ndarray, right: np.ndarray, order: int) -> np.ndarray:
    """counts[i, k, e] = #{(j, t, u) : left[i,j,t] + right[j,k,u] == e (mod order)}
    over the terms t of left[i, j] and u of right[j, k], padding (-1) no
    term: one bincount over the keys (i c + k) order + e per chunk of rows
    i, with padded pairs sent to one spare bin past the end."""
    rows, n, wl = left.shape
    cols, wr = right.shape[1:]
    padded = left.min() < 0 or right.min() < 0
    out = np.empty((rows, cols, order), dtype=np.int64)
    step = max(1, min(rows, _CHUNK // (n * cols * wl * wr)))
    offsets = order * np.arange(step * cols).reshape(step, 1, cols, 1, 1)
    for i in range(0, rows, step):
        block = left[i:i + step]
        r = block.shape[0]
        keys = ((block[:, :, None, :, None] + right[None, :, :, None, :]) % order
                + offsets[:r])
        if padded:
            keys = np.where((block[:, :, None, :, None] < 0) | (right[None, :, :, None, :] < 0),
                            r * cols * order, keys)
        out[i:i + r] = np.bincount(keys.ravel(), minlength=r * cols * order + 1)[:-1].reshape(
            r, cols, order)
    return out


def _triple_counts(a: np.ndarray, order: int) -> np.ndarray:
    """counts[i, k, e] = #{(l, j, t, u, v) : a[i,l,t] + a[l,j,u] + a[j,k,v] == e
    (mod order)}: the pair counts of a with a, gathered along the terms of
    a[j, k] and summed over j and the terms."""
    n, _, w = a.shape
    a2 = _pair_counts(a, a, order)
    # shift[j, k, v, e] = e - a[j, k, v], so a2[i, j, shift[j, k, v, e]]
    # counts the paths through j that end at exponent e; a padded term
    # reads a zero column appended at index `order`
    shift = (np.arange(order) - a[:, :, :, None]) % order
    if a.min() < 0:
        a2 = np.concatenate([a2, np.zeros((n, n, 1), dtype=np.int64)], axis=2)
        shift[a < 0] = order
    js = np.arange(n)[:, None, None, None]
    out = np.empty((n, n, order), dtype=np.int64)
    step = max(1, _CHUNK // (n * n * w * order))
    for i in range(0, n, step):
        out[i:i + step] = a2[i:i + step][:, js, shift].sum(axis=(1, 3))
    return out


def _verify(m: ModularData) -> RelationReport:
    order, s, tau = m.terms
    n = m.n
    d = m.discriminant
    phi = euler_phi(order)
    labels = np.arange(n)
    dual = np.asarray(m.dual)

    s2 = reduce_int_counts(order, _pair_counts(s, s, order))
    target = np.zeros((n, n, phi), dtype=np.int64)
    target[labels, dual, 0] = d
    if not np.array_equal(s2, target):
        bad = tuple(np.argwhere((s2 != target).any(axis=2))[0].tolist())
        return RelationReport("i", f"s_tilde^2 != D*P at {bad}")

    if any(m.dual[m.dual[i]] != i for i in range(n)):
        return RelationReport("ii", "dual is not an involution")

    # With (i) settled, s_tilde^2 has support on (i, i*), so commuting with
    # the diagonal twist matrix reduces to theta_{i*} = theta_i.
    bad = np.flatnonzero(tau[dual] != tau)
    if len(bad):
        return RelationReport("iii", f"theta differs on the dual pair ({bad[0]},{dual[bad[0]]})")

    a = (s + tau[None, :, None]) % order  # s_tilde * T, columns scaled
    if not m.pointed:
        a[s < 0] = -1
    lhs = reduce_int_counts(order, _triple_counts(a, order))
    rhs = np.zeros((n, n, phi), dtype=np.int64)
    rhs[labels, dual] = d * reduce_int_counts(order, m.gauss_counts)
    if not np.array_equal(lhs, rhs):
        bad = tuple(np.argwhere((lhs != rhs).any(axis=2))[0].tolist())
        return RelationReport("iv", f"(s_tilde*T)^3 mismatch at {bad}")
    return _PASS


def verify_relations(m: ModularData) -> RelationReport:
    """Check relations (i)-(iv) exactly; report the first failure.  The
    report is computed once per data and kept on it."""
    return m._relation_report
