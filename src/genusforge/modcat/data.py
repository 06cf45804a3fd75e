"""Modular data: labels, dual, and one table of root-of-unity terms.

Everything is stored in the rescaled convention s_tilde = sqrt(D) * S.
Each entry s_tilde[i][j] = S_ij / S_00 of a modular category is an
algebraic integer in a cyclotomic field, so its power-basis coordinates
are integers, and it is a sum of roots of unity zeta_M over one order M:
a coordinate c on zeta^e gives c copies of e, or |c| copies of e + M/2
when c < 0, as zeta^(M/2) = -1 for even M.  `Terms` keeps these exponents,
one short list per entry padded with -1, beside the twists theta_i =
zeta_M^tau_i, each stored once as its integer tau_i.  A pointed entry is
one exponent; Ising's sqrt 2 is zeta_16^2 + zeta_16^14, -sqrt 2 is
zeta_16^6 + zeta_16^10 and 0 the empty list.  M is even unless every
entry is one root of unity, as for `from_quadratic_space`, which keeps
the order of its roots.  Data whose entries have a non-integer
coordinate are not modular and are rejected.

Everything in the library reads this table.  Two views are built from it
on first access: the matrix `s_tilde` of `CyclotomicNumber`s (JSON,
equality and `voa_genus_equal`), each entry written over the least order
that holds its exponents, and `twists`, the phases tau_i/M mod 1, which
no library code reads.  The discriminant D = sum of dim^2 must come out a
positive rational integer.  Conformal weights exist only in the JSON
format: its "weights" list is written from the twists, and on input it
must match the labels and agree with the twists mod 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple, Sequence

import numpy as np

from ..errors import ValidationError
from ..exactkernel import CyclotomicNumber, as_fraction, fraction_str, reduce_int_counts
from ..exactkernel.cyclotomic import _power_index
from ..quadspace import FiniteQuadraticSpace


class Terms(NamedTuple):
    """s_tilde[i][j] = sum_t zeta_order^s[i, j, t] over the terms with
    s[i, j, t] >= 0 (-1 pads a shorter list), and theta_i =
    zeta_order^twists[i]; exponents lie in [0, order), and the order is even
    unless every entry is one term."""

    order: int
    s: np.ndarray
    twists: np.ndarray


def times(a: np.ndarray, b: np.ndarray, order: int) -> np.ndarray:
    """The terms of the products of the entries of a and b, broadcast over
    every axis but the last: each sum of a term of a and a term of b,
    padding where either is padding (any negative exponent)."""
    sums = (a[..., :, None] + b[..., None, :]) % order
    if a.min() < 0 or b.min() < 0:
        sums[(a[..., :, None] < 0) | (b[..., None, :] < 0)] = -1
    return sums.reshape(sums.shape[:-2] + (-1,))


def entry(terms: np.ndarray, order: int) -> CyclotomicNumber:
    """sum_t zeta_order^terms[t], over the least order holding every term."""
    exps = terms[terms >= 0].tolist()
    step = gcd(order, *exps)
    return CyclotomicNumber.from_exponents(order // step,
                                           dict(Counter(e // step for e in exps)))


def pad(lists: Sequence[Sequence[int]]) -> np.ndarray:
    """Term lists as rows of one array, padded with -1."""
    out = np.full((len(lists), max([1, *map(len, lists)])), -1, dtype=np.int64)
    for r, terms in enumerate(lists):
        out[r, :len(terms)] = terms
    return out


def terms_of(n: int, coeffs: Sequence[int], order: int) -> list[int]:
    """Exponents over zeta_order whose roots sum to sum_k coeffs[k] zeta_n^k,
    for integer power-basis coordinates and n dividing the even order: one
    exponent for a root of unity +-zeta_n^j, else c copies of the exponent
    of each coordinate c, on the opposite root when c < 0."""
    step, half = order // n, order // 2
    power = _power_index(n)
    e = power.get(tuple(coeffs))
    if e is not None:
        return [e * step]
    e = power.get(tuple(-c for c in coeffs))
    if e is not None:
        return [(e * step + half) % order]
    return [(k * step + (half if c < 0 else 0)) % order
            for k, c in enumerate(coeffs) for _ in range(abs(c))]


@dataclass(frozen=True, eq=False)
class ModularData:
    """Labels 0..n-1 with 0 the unit; dual is charge conjugation; `terms`
    holds s_tilde and the twists over one root of unity."""

    dual: tuple[int, ...]
    terms: Terms

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
        order, s, tau = self.terms
        if not all(isinstance(a, np.ndarray) and a.dtype.kind in "iu" for a in (s, tau)):
            raise ValidationError("terms must be integer arrays")
        if tau.shape != (n,) or tau.min() < 0 or tau.max() >= order:
            raise ValidationError("twists must be one integer in [0, order) per label")
        if s.ndim != 3 or s.shape[:2] != (n, n):
            raise ValidationError("s_tilde must be square over the labels")
        if s.min() < -1 or s.max() >= order or (order % 2 and not self.pointed):
            raise ValidationError("terms must lie in [0, order), an even order "
                                  "unless every entry is one term")
        bad = np.argwhere(s != s.transpose(1, 0, 2))
        if len(bad):
            i, j, _ = bad[0].tolist()
            raise ValidationError(f"s_tilde not symmetric at ({i},{j})")
        if not self.pointed:  # a root of unity never vanishes
            zero = [i for i, terms in enumerate(s[0]) if entry(terms, order).is_zero()]
            if zero:
                raise ValidationError(f"dimension of label {zero[0]} vanishes")
        if self.discriminant <= 0:
            raise ValidationError("sum of squared dimensions must be a "
                                  "positive integer")

    @property
    def n(self) -> int:
        return len(self.dual)

    @property
    def labels(self) -> range:
        return range(self.n)

    @cached_property
    def s_tilde(self) -> tuple[tuple[CyclotomicNumber, ...], ...]:
        order, s, _ = self.terms
        seen: dict[bytes, CyclotomicNumber] = {}

        def cell(terms: np.ndarray) -> CyclotomicNumber:
            key = terms.tobytes()
            if key not in seen:
                seen[key] = entry(terms, order)
            return seen[key]

        return tuple(tuple(map(cell, row)) for row in s)

    @cached_property
    def twists(self) -> tuple[PhaseMod1, ...]:
        """The phases tau_i/M mod 1 of `terms.twists`, a view built on first
        read for callers that want exact values (`bench/checks.py`)."""
        from ..exactkernel import PhaseMod1
        order, _, tau = self.terms
        return tuple(PhaseMod1(Fraction(t, order)) for t in tau.tolist())

    @property
    def dims(self) -> tuple[CyclotomicNumber, ...]:
        return self.s_tilde[0]

    @cached_property
    def discriminant(self) -> int:
        """D = sum of dim^2; raises ValidationError unless it is an integer."""
        coeffs = reduce_int_counts(self.terms.order, self._dim_square_counts(0)).tolist()
        if any(coeffs[1:]):
            raise ValidationError("sum of squared dimensions must be a "
                                  "positive integer")
        return coeffs[0]

    def _dim_square_counts(self, twist) -> np.ndarray:
        """Counts over zeta_M of sum_j zeta_M^twist[j] dim_j^2, for twist 0 or
        an array of shape (n, 1, 1)."""
        order, s, _ = self.terms
        dims = s[0]
        terms = (dims[:, :, None] + dims[:, None, :] + twist) % order
        if not self.pointed:
            terms = terms[(dims[:, :, None] >= 0) & (dims[:, None, :] >= 0)]
        return np.bincount(terms.ravel(), minlength=order)

    @cached_property
    def gauss_counts(self) -> np.ndarray:
        """Counts over zeta_M of sum_j theta_j dim_j^2."""
        return self._dim_square_counts(self.terms.twists[:, None, None])

    @cached_property
    def pointed(self) -> bool:
        """Whether every entry is one root of unity (one term, no padding),
        as for the data of a pointed category."""
        s = self.terms.s
        return s.shape[2] == 1 and s.min() >= 0

    @cached_property
    def inverse_dims(self) -> tuple[np.ndarray, int]:
        """(terms, scale) with scale / dims_l = sum_t zeta_M^terms[l, t]: a
        pointed dim zeta^e inverts to zeta^-e, any other dim through
        `CyclotomicNumber.inverse`, over one common integer scale."""
        order, s, _ = self.terms
        if self.pointed:
            return -s[0] % order, 1
        inverses = [entry(terms, order).inverse() for terms in s[0]]
        scale = lcm(*(x.den for x in inverses))
        return pad([terms_of(x.order, [c * (scale // x.den) for c in x.num], order)
                    for x in inverses]), scale

    @cached_property
    def _relation_report(self):
        """The result of `verify_relations`, computed once per data."""
        from .relations import _verify  # relations.py imports this module
        return _verify(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ModularData):
            return NotImplemented
        (o1, _, t1), (o2, _, t2) = self.terms, other.terms  # t1/o1 == t2/o2
        return (self.dual == other.dual and np.array_equal(t1 * o2, t2 * o1)
                and self.s_tilde == other.s_tilde)

    def __repr__(self) -> str:
        return f"ModularData(n={self.n}, D={self.discriminant})"


def build_modular_data(dual: Sequence[int],
                       s_tilde: Sequence[Sequence],
                       twists: Sequence) -> ModularData:
    """Normalize raw entries (rationals allowed) and rational twists into
    ModularData."""
    tw = [as_fraction(t) % 1 for t in twists]
    mat = [[x if isinstance(x, CyclotomicNumber)
            else CyclotomicNumber.from_rational(as_fraction(x)) for x in row]
           for row in s_tilde]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValidationError("s_tilde must be square over the labels")
    bad = next((x for row in mat for x in row if x.den != 1), None)
    if bad is not None:
        raise ValidationError(f"s_tilde entry {bad} is not an algebraic integer "
                              "(its power-basis coordinates are not integers), "
                              "so the data are not modular")
    order = lcm(2, *(x.order for row in mat for x in row), *(t.denominator for t in tw))
    s = pad([terms_of(x.order, x.num, order) for row in mat for x in row])
    tau = np.array([t.numerator * (order // t.denominator) for t in tw], dtype=np.int64)
    return ModularData(tuple(dual), Terms(order, s.reshape(n, n, s.shape[1]), tau))


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
    dual = tuple(((-coords) % s.orders_array @ s.radix).tolist())
    return ModularData(dual, Terms(order, exps[:, :, None], tau))


def product(m1: ModularData, m2: ModularData) -> ModularData:
    """Product category data: labels are pairs, s_tilde the tensor product
    (term exponents add), twists add."""
    (o1, s1, t1), (o2, s2, t2) = m1.terms, m2.terms
    order = lcm(o1, o2)
    n = m1.n * m2.n
    # scaling keeps padding negative, and `times` writes it back as -1
    s = times((s1 * (order // o1))[:, None, :, None], (s2 * (order // o2))[None, :, None, :],
              order).reshape(n, n, -1)
    tau = (t1[:, None] * (order // o1) + t2[None, :] * (order // o2)) % order
    dual = tuple(m1.dual[i] * m2.n + m2.dual[j]
                 for i in m1.labels for j in m2.labels)
    return ModularData(dual, Terms(order, s, tau.ravel()))


def ising_data() -> ModularData:
    """The three-object Ising data over zeta_16: twists (0, 1/2, 1/16), dims
    (1, 1, sqrt 2) with sqrt 2 = zeta^2 + zeta^14 and -sqrt 2 = zeta^6 + zeta^10."""
    s = np.array([[[0, -1], [0, -1], [2, 14]],
                  [[0, -1], [0, -1], [6, 10]],
                  [[2, 14], [6, 10], [-1, -1]]], dtype=np.int64)
    return ModularData((0, 1, 2), Terms(16, s, np.array([0, 8, 1], dtype=np.int64)))


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
        order, coeffs = doc["order"], doc["coeffs"]
        if isinstance(order, bool) or not isinstance(order, int):
            raise ValidationError("cyclotomic order must be an integer")
        if not isinstance(coeffs, list):
            raise ValidationError("cyclotomic coeffs must be a list")
        return CyclotomicNumber(order, coeffs)
    raise ValidationError(f"cannot parse cyclotomic value {doc!r}")


def modular_data_to_json(m: ModularData) -> dict:
    order, _, tau = m.terms
    twists = [fraction_str(t, order) for t in tau.tolist()]
    return {
        "labels": m.n,
        "dual": list(m.dual),
        "s_tilde": [[_cyclo_to_json(x) for x in row] for row in m.s_tilde],
        "twists": twists,
        "weights": list(twists),
    }


def modular_data_from_json(doc: dict) -> ModularData:
    if not isinstance(doc, dict):
        raise ValidationError("modular data document must be an object")
    for key in ("labels", "dual", "s_tilde", "twists", "weights"):
        if key not in doc:
            raise ValidationError(f"modular data document lacks {key!r}")
    n, dual, rows = doc["labels"], doc["dual"], doc["s_tilde"]
    if (type(n) is not int or not isinstance(dual, list) or len(dual) != n
            or any(type(i) is not int for i in dual)):
        raise ValidationError("'labels' must count the integer entries of 'dual'")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValidationError("'s_tilde' must be a list of rows")
    mat = [[_cyclo_from_json(x) for x in row] for row in rows]
    twists, weights = doc["twists"], doc["weights"]
    if not (isinstance(twists, list) and isinstance(weights, list)
            and len(twists) == len(weights) == n):
        raise ValidationError("twists and weights must match the labels")
    m = build_modular_data(dual, mat, twists)
    order, _, tau = m.terms
    for i, (w, t) in enumerate(zip(map(as_fraction, weights), tau.tolist())):
        if (w.numerator * order - t * w.denominator) % (w.denominator * order):
            raise ValidationError(f"twist and weight of label {i} differ mod 1")
    return m
