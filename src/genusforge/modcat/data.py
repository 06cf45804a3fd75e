"""Modular data: labels, s-tilde matrix, twists, weights, and the exponents
of pointed data.

Everything is stored in the rescaled convention s_tilde = sqrt(D) * S,
which keeps all entries inside cyclotomic fields.  The discriminant
D = sum of dim^2 must come out a positive rational integer; twists are
rational phases (so automatically roots of unity) and must agree with
the conformal weights mod 1.

When every entry of s_tilde is a root of unity, as for every pointed
category, `exponents` writes the data over one root of unity zeta_M:
s_tilde[i][j] = zeta_M^E[i, j] and theta_i = zeta_M^tau[i], with M the
lcm of the entry orders and twist denominators.  For such data the table
(M, E, tau) is what is validated and what relations, fusion and the
anomaly test read.  `from_quadratic_space` builds nothing else: the
cyclotomic matrix `s_tilde` of its data is built from E on first access
(JSON, `product`, `voa_genus_equal` and the cyclotomic reference paths).
Data whose entries are not all roots of unity, such as Ising, keep their
given matrix, have `exponents` None and are checked and used in
cyclotomic arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ValidationError
from ..exactkernel import (
    CyclotomicNumber,
    PhaseMod1,
    as_fraction,
    order_cap,
    reduce_int_counts,
)
from ..exactkernel.cyclotomic import _power_index
from ..quadspace import FiniteQuadraticSpace


class Exponents(NamedTuple):
    """s_tilde[i][j] = zeta_order^s[i, j] and theta_i = zeta_order^twists[i],
    with every exponent in [0, order)."""

    order: int
    s: np.ndarray
    twists: np.ndarray


def _as_cyclo(x) -> CyclotomicNumber:
    if isinstance(x, CyclotomicNumber):
        return x
    return CyclotomicNumber.from_rational(as_fraction(x))


@dataclass(frozen=True, eq=False)
class ModularData:
    """Labels 0..n-1 with 0 the unit; dual is charge conjugation.

    `matrix` is s_tilde as given, or None when the data are given by their
    `exponents` alone; read the matrix through `s_tilde` either way.
    """

    dual: tuple[int, ...]
    matrix: tuple[tuple[CyclotomicNumber, ...], ...] | None
    twists: tuple[PhaseMod1, ...]
    weights: tuple[PhaseMod1, ...]
    exponents: Exponents | None = None

    def __post_init__(self) -> None:
        n = len(self.dual)
        if n == 0:
            raise ValidationError("modular data needs at least the unit label")
        if sorted(self.dual) != list(range(n)):
            raise ValidationError("dual must be a permutation of the labels")
        if self.dual[0] != 0:
            raise ValidationError("the unit label must be self-dual")
        if any(self.dual[self.dual[i]] != i for i in range(n)):
            raise ValidationError("dual must be an involution")
        if len(self.twists) != n or len(self.weights) != n:
            raise ValidationError("twists and weights must match the labels")
        if self.exponents is None:
            self._check_matrix()
        else:
            self._check_exponents()
        for i in range(n):
            if self.twists[i] != self.weights[i]:
                raise ValidationError(
                    f"twist and weight of label {i} differ mod 1")
        if self.discriminant <= 0:
            raise ValidationError("sum of squared dimensions must be a "
                                  "positive integer")

    def _check_matrix(self) -> None:
        n = self.n
        mat = self.matrix
        if mat is None or len(mat) != n or any(len(row) != n for row in mat):
            raise ValidationError("s_tilde must be square over the labels")
        for i in range(n):
            for j in range(i + 1, n):
                if mat[i][j] != mat[j][i]:
                    raise ValidationError(f"s_tilde not symmetric at ({i},{j})")
        for i, d in enumerate(mat[0]):
            if d.is_zero():
                raise ValidationError(f"dimension of label {i} vanishes")

    def _check_exponents(self) -> None:
        # roots of unity never vanish, so only shape and symmetry are left
        order, exps, tau = self.exponents
        n = self.n
        if exps.shape != (n, n) or tau.shape != (n,):
            raise ValidationError("s_tilde must be square over the labels")
        if exps.min() < 0 or exps.max() >= order:
            raise ValidationError("exponents must lie in [0, order)")
        bad = np.argwhere(exps != exps.T)
        if len(bad):
            i, j = bad[0].tolist()
            raise ValidationError(f"s_tilde not symmetric at ({i},{j})")

    @property
    def n(self) -> int:
        return len(self.dual)

    @property
    def labels(self) -> range:
        return range(self.n)

    @cached_property
    def s_tilde(self) -> tuple[tuple[CyclotomicNumber, ...], ...]:
        if self.matrix is not None:
            return self.matrix
        order, exps, _ = self.exponents
        roots = {}
        for e in np.unique(exps).tolist():
            p = Fraction(e, order)
            roots[e] = CyclotomicNumber.from_exponents(p.denominator, {p.numerator: 1})
        return tuple(tuple(roots[e] for e in row) for row in exps.tolist())

    @property
    def dims(self) -> tuple[CyclotomicNumber, ...]:
        return self.s_tilde[0]

    @cached_property
    def discriminant(self) -> int:
        """D = sum of dim^2; raises ValidationError unless it is an integer."""
        if self.exponents is not None:
            order, exps, _ = self.exponents
            coeffs = reduce_int_counts(order, np.bincount(2 * exps[0] % order,
                                                          minlength=order))
            val = None if any(coeffs[1:]) else coeffs[0]
        else:
            d = CyclotomicNumber.zero()
            for x in self.dims:
                d = d + x * x
            val = d.is_integer()
        if val is None:
            raise ValidationError("sum of squared dimensions must be a "
                                  "positive integer")
        return val

    @cached_property
    def _relation_report(self):
        """The result of `verify_relations`, computed once per data."""
        from .relations import _verify  # relations.py imports this module
        return _verify(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModularData):
            return NotImplemented
        return ((self.dual, self.twists, self.weights, self.s_tilde)
                == (other.dual, other.twists, other.weights, other.s_tilde))

    def __repr__(self) -> str:
        return f"ModularData(n={self.n}, D={self.discriminant})"


def _exponent(x: CyclotomicNumber, order: int) -> int | None:
    """e with x = zeta_order^e, read off the power basis of x's own field:
    the roots of unity there are +-zeta^j, each one row of `_power_index`."""
    power = _power_index(x.order)
    e = power.get(x.coeffs)
    if e is not None:
        return e * (order // x.order)
    e = power.get(tuple(-c for c in x.coeffs))
    if e is None or order % 2:
        return None
    return (e * (order // x.order) + order // 2) % order


def _exponents_of(mat, twists) -> Exponents | None:
    """The exponents of every entry and twist, or None when some entry is
    not a root of unity, the matrix is not square or the common order
    passes the cyclotomic cap."""
    if any(len(row) != len(mat) for row in mat):
        return None
    order = lcm(*(x.order for row in mat for x in row),
                *(t.value.denominator for t in twists))
    if order > order_cap():
        return None
    exps = [[_exponent(x, order) for x in row] for row in mat]
    if any(None in row for row in exps):
        return None
    tau = [t.value.numerator * (order // t.value.denominator) for t in twists]
    return Exponents(order, np.array(exps, dtype=np.int64).reshape(len(mat), len(mat)),
                     np.array(tau, dtype=np.int64))


def build_modular_data(dual: Sequence[int],
                       s_tilde: Sequence[Sequence],
                       twists: Sequence,
                       weights: Sequence | None = None) -> ModularData:
    """Normalize raw entries (rationals allowed) into ModularData."""
    tw = tuple(t if isinstance(t, PhaseMod1) else PhaseMod1(as_fraction(t))
               for t in twists)
    if weights is None:
        wt = tw
    else:
        wt = tuple(w if isinstance(w, PhaseMod1) else PhaseMod1(as_fraction(w))
                   for w in weights)
    mat = tuple(tuple(_as_cyclo(x) for x in row) for row in s_tilde)
    return ModularData(tuple(dual), mat, tw, wt, _exponents_of(mat, tw))


def from_quadratic_space(s: FiniteQuadraticSpace) -> ModularData:
    """The pointed modular data of (A, q): labels are the elements of A,
    s_tilde[x][y] = exp(-2 pi i b(x,y)), twist of x is q(x)/2 mod 1."""
    coords, q, _ = s.table
    level = s.level
    b = (coords @ s.gram_array % level) @ coords.T % level
    order = lcm(level // gcd(level, int(np.gcd.reduce(b, axis=None))),
                2 * level // gcd(2 * level, int(np.gcd.reduce(q))))
    exps = (-b) % level * order // level
    tau = q * order // (2 * level)
    strides = np.array([prod(s.orders[i + 1:]) for i in range(s.rank)], dtype=np.int64)
    dual = tuple(((-coords) % np.array(s.orders, dtype=np.int64) @ strides).tolist())
    twists = tuple(PhaseMod1(Fraction(v, 2 * level)) for v in q.tolist())
    return ModularData(dual, None, twists, twists, Exponents(order, exps, tau))


def product(m1: ModularData, m2: ModularData) -> ModularData:
    """Product category data: labels are pairs, s_tilde the tensor product,
    twists add."""
    n2 = m2.n
    dual = tuple(m1.dual[i] * n2 + m2.dual[j]
                 for i in m1.labels for j in m2.labels)
    rows = []
    for i1 in m1.labels:
        for i2 in m2.labels:
            rows.append(tuple(m1.s_tilde[i1][j1] * m2.s_tilde[i2][j2]
                              for j1 in m1.labels for j2 in m2.labels))
    twists = tuple(m1.twists[i] + m2.twists[j]
                   for i in m1.labels for j in m2.labels)
    weights = tuple(m1.weights[i] + m2.weights[j]
                    for i in m1.labels for j in m2.labels)
    return build_modular_data(dual, rows, twists, weights)


def ising_data() -> ModularData:
    """The three-object Ising data: weights (0, 1/2, 1/16), dims (1, 1, sqrt 2)."""
    rt2 = CyclotomicNumber.from_exponents(8, {1: 1, 7: 1})
    one = CyclotomicNumber.one()
    s = ((one, one, rt2),
         (one, one, -rt2),
         (rt2, -rt2, CyclotomicNumber.zero()))
    twists = (PhaseMod1(Fraction(0)), PhaseMod1(Fraction(1, 2)),
              PhaseMod1(Fraction(1, 16)))
    return ModularData((0, 1, 2), s, twists, twists)


def _cyclo_to_json(x: CyclotomicNumber):
    q = x.is_rational()
    if q is not None:
        return str(q)
    return {"order": x.order, "coeffs": [str(c) for c in x.coeffs]}


def _cyclo_from_json(doc) -> CyclotomicNumber:
    if isinstance(doc, bool) or isinstance(doc, float):
        raise ValidationError("cyclotomic entries must be exact")
    if isinstance(doc, (int, str)):
        return CyclotomicNumber.from_rational(as_fraction(doc))
    if isinstance(doc, dict) and "order" in doc and "coeffs" in doc:
        order = doc["order"]
        if not isinstance(order, int):
            raise ValidationError("cyclotomic order must be an integer")
        return CyclotomicNumber(order, [as_fraction(c) for c in doc["coeffs"]])
    raise ValidationError(f"cannot parse cyclotomic value {doc!r}")


def modular_data_to_json(m: ModularData) -> dict:
    return {
        "labels": m.n,
        "dual": list(m.dual),
        "s_tilde": [[_cyclo_to_json(x) for x in row] for row in m.s_tilde],
        "twists": [str(t.value) for t in m.twists],
        "weights": [str(w.value) for w in m.weights],
    }


def modular_data_from_json(doc: dict) -> ModularData:
    if not isinstance(doc, dict):
        raise ValidationError("modular data document must be an object")
    for key in ("labels", "dual", "s_tilde", "twists", "weights"):
        if key not in doc:
            raise ValidationError(f"modular data document lacks {key!r}")
    n = doc["labels"]
    dual = doc["dual"]
    if not isinstance(n, int) or not isinstance(dual, list) or len(dual) != n:
        raise ValidationError("'labels' must count the entries of 'dual'")
    mat = [[_cyclo_from_json(x) for x in row] for row in doc["s_tilde"]]
    return build_modular_data(dual, mat, doc["twists"], doc["weights"])
