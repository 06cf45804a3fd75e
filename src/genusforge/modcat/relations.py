"""Exact verification of the modular-group relations.

All four relations are stated in rescaled form so that neither sqrt(D)
nor the cube root gamma ever appears:

  (i)   s_tilde^2 = D * P        (P the charge-conjugation permutation)
  (ii)  P^2 = 1
  (iii) s_tilde^2 T = T s_tilde^2
  (iv)  (s_tilde T)^3 = (sum_i theta_i dim_i^2) * s_tilde^2

For pointed data, which carry their exponents over one root of unity
zeta_M, each product becomes a count of exponent sums mod M, reduced to
the power basis with one integer matrix multiplication.  Data without
exponents, such as Ising, are multiplied out in cyclotomic arithmetic,
which is fine for small label sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exactkernel import CyclotomicNumber, euler_phi, reduce_int_counts, root_of_unity
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
# temporaries (n^2 and n^2 M entries per row) stay near this many entries;
# all rows at once would need n^3 M, 2^27 at n = 64, M = 512.
_CHUNK = 1 << 20


def _pair_counts(left: np.ndarray, right: np.ndarray, order: int) -> np.ndarray:
    """counts[i, k, e] = #{j : left[i,j] + right[j,k] == e (mod order)}:
    one bincount over the keys (i n + k) order + e per chunk of rows i."""
    n = left.shape[0]
    out = np.empty((n, n, order), dtype=np.int64)
    step = max(1, min(n, _CHUNK // (n * n)))
    offsets = order * np.arange(n * step).reshape(step, 1, n)
    for i in range(0, n, step):
        block = left[i:i + step]
        rows = block.shape[0]
        keys = (block[:, :, None] + right[None, :, :]) % order + offsets[:rows]
        out[i:i + rows] = np.bincount(
            keys.ravel(), minlength=rows * n * order).reshape(rows, n, order)
    return out


def _triple_counts(a: np.ndarray, order: int) -> np.ndarray:
    """counts[i, k, e] = #{(j, l) : a[i,l] + a[l,j] + a[j,k] == e (mod order)}:
    the pair counts of a with a, gathered along a[j, k] and summed over j."""
    n = a.shape[0]
    a2 = _pair_counts(a, a, order)
    # shift[j, k, e] = e - a[j, k], so a2[i, j, shift[j, k, e]] counts the
    # paths through j that end at exponent e
    shift = (np.arange(order)[None, None, :] - a[:, :, None]) % order
    js = np.arange(n)[:, None, None]
    out = np.empty((n, n, order), dtype=np.int64)
    step = max(1, _CHUNK // (n * n * order))
    for i in range(0, n, step):
        out[i:i + step] = a2[i:i + step][:, js, shift].sum(axis=1)
    return out


def _verify_exponents(m: ModularData) -> RelationReport:
    order, exps, tau = m.exponents
    n = m.n
    d = m.discriminant
    phi = euler_phi(order)
    labels = np.arange(n)
    dual = np.asarray(m.dual)

    s2 = reduce_int_counts(order, _pair_counts(exps, exps, order))
    target = np.zeros((n, n, phi), dtype=np.int64)
    target[labels, dual, 0] = d
    if not np.array_equal(s2, target):
        bad = next((i, k) for i in range(n) for k in range(n)
                   if not np.array_equal(s2[i, k], target[i, k]))
        return RelationReport("i", f"s_tilde^2 != D*P at {bad}")

    if any(m.dual[m.dual[i]] != i for i in range(n)):
        return RelationReport("ii", "dual is not an involution")

    # With (i) settled, s_tilde^2 has support on (i, i*), so commuting with
    # the diagonal twist matrix reduces to theta_{i*} = theta_i.
    for i in range(n):
        if m.twists[m.dual[i]] != m.twists[i]:
            return RelationReport(
                "iii", f"theta differs on the dual pair ({i},{m.dual[i]})")

    a = (exps + tau[None, :]) % order  # s_tilde * T, columns scaled
    lhs = reduce_int_counts(order, _triple_counts(a, order))

    # Gauss part: sum theta_i dim_i^2 = sum zeta^(tau_i + 2 E[0,i]).
    gauss = np.bincount((tau + 2 * exps[0]) % order, minlength=order)
    rhs = np.zeros((n, n, phi), dtype=np.int64)
    rhs[labels, dual] = d * reduce_int_counts(order, gauss)
    if not np.array_equal(lhs, rhs):
        bad = next((i, k) for i in range(n) for k in range(n)
                   if not np.array_equal(lhs[i, k], rhs[i, k]))
        return RelationReport("iv", f"(s_tilde*T)^3 mismatch at {bad}")
    return _PASS


def _mat_mul_cyclo(a, b):
    n = len(a)
    zero = CyclotomicNumber.zero()
    out = []
    for i in range(n):
        row = []
        for k in range(n):
            acc = zero
            for j in range(n):
                acc = acc + a[i][j] * b[j][k]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _verify_cyclotomic(m: ModularData) -> RelationReport:
    n = m.n
    d = CyclotomicNumber.from_rational(m.discriminant)
    zero = CyclotomicNumber.zero()
    s2 = _mat_mul_cyclo(m.s_tilde, m.s_tilde)
    for i in range(n):
        for k in range(n):
            want = d if k == m.dual[i] else zero
            if s2[i][k] != want:
                return RelationReport("i", f"s_tilde^2 != D*P at ({i},{k})")
    if any(m.dual[m.dual[i]] != i for i in range(n)):
        return RelationReport("ii", "dual is not an involution")
    theta = [root_of_unity(t) for t in m.twists]
    for i in range(n):
        for k in range(n):
            if s2[i][k] * theta[k] != theta[i] * s2[i][k]:
                return RelationReport(
                    "iii", f"s_tilde^2 and T do not commute at ({i},{k})")
    st = tuple(tuple(m.s_tilde[i][j] * theta[j] for j in range(n))
               for i in range(n))
    cubed = _mat_mul_cyclo(_mat_mul_cyclo(st, st), st)
    gauss = zero
    for i in range(n):
        gauss = gauss + theta[i] * m.dims[i] * m.dims[i]
    for i in range(n):
        for k in range(n):
            if cubed[i][k] != gauss * s2[i][k]:
                return RelationReport(
                    "iv", f"(s_tilde*T)^3 mismatch at ({i},{k})")
    return _PASS


def _verify(m: ModularData) -> RelationReport:
    return _verify_cyclotomic(m) if m.exponents is None else _verify_exponents(m)


def verify_relations(m: ModularData) -> RelationReport:
    """Check relations (i)-(iv) exactly; report the first failure.  The
    report is computed once per data and kept on it."""
    return m._relation_report
