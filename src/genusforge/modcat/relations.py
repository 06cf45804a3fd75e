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

from ..exactkernel import CyclotomicNumber, euler_phi, root_of_unity
from ..exactkernel.cyclotomic import _reduction_rows
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


def _pair_counts(left: np.ndarray, right: np.ndarray, order: int) -> np.ndarray:
    """counts[i, k, e] = #{j : left[i,j] + right[j,k] == e (mod order)}."""
    n = left.shape[0]
    out = np.empty((n, n, order), dtype=np.int64)
    offsets = (order * np.arange(n))[None, :]
    for i in range(n):
        t = (left[i, :][:, None] + right) % order  # [j, k]
        flat = np.bincount((t + offsets).ravel(), minlength=order * n)
        out[i] = flat.reshape(n, order)
    return out


def _reduce_counts(counts: np.ndarray, order: int) -> np.ndarray:
    """Reduce exponent-count vectors (last axis) into power-basis coords."""
    rows = np.array(_reduction_rows(order), dtype=np.int64)
    return counts @ rows


def _verify_exponents(m: ModularData) -> RelationReport:
    order, exps, tau = m.exponents
    n = m.n
    d = m.discriminant
    phi = euler_phi(order)

    s2 = _reduce_counts(_pair_counts(exps, exps, order), order)
    target = np.zeros((n, n, phi), dtype=np.int64)
    for i in range(n):
        target[i, m.dual[i], 0] = d
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
    a2 = _pair_counts(a, a, order)
    a3 = np.zeros((n, n, order), dtype=np.int64)
    eye = np.arange(order)
    for j in range(n):
        idx = (eye[None, :] - a[j, :][:, None]) % order  # [k, e]
        a3 += a2[:, j, :][:, idx]
    lhs = _reduce_counts(a3, order)

    # Gauss part: sum theta_i dim_i^2 = sum zeta^(tau_i + 2 E[0,i]).
    gauss = np.bincount((tau + 2 * exps[0]) % order, minlength=order)
    gauss_coeffs = _reduce_counts(gauss[None, :], order)[0]
    rhs = np.zeros((n, n, phi), dtype=np.int64)
    for i in range(n):
        rhs[i, m.dual[i]] = d * gauss_coeffs
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
