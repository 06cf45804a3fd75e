"""Exact cyclotomic numbers in the power basis modulo Phi_N.

A value is a Q-linear combination of 1, zeta, ..., zeta^(phi(N)-1) for a
root of unity zeta of order N.  The basis is a genuine Q-basis, so reduced
coordinate tuples are canonical and equality is coordinate equality after
embedding into the lcm order.  Orders widen lazily and are capped (default
10080) so runaway lcm growth raises LimitError instead of thrashing.

No floating point enters any algebraic operation.  `cyclo_approx` returns a
certified complex enclosure: mpmath evaluation at elevated precision wrapped
in an outward rational error envelope.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

import mpmath
import numpy as np

from ..errors import LimitError, InternalError, ValidationError
from .rationals import PhaseMod1, as_fraction

_ORDER_CAP = 10080

Scalar = Union[int, Fraction]


def order_cap() -> int:
    return _ORDER_CAP


def set_order_cap(n: int) -> None:
    global _ORDER_CAP
    if n < 1:
        raise ValidationError("order cap must be positive")
    _ORDER_CAP = n


def _check_order(n: int) -> None:
    if n < 1:
        raise ValidationError(f"cyclotomic order must be positive, got {n}")
    if n > _ORDER_CAP:
        raise LimitError(f"cyclotomic order {n} exceeds cap {_ORDER_CAP}")


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_mul_int(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_div_exact_int(num: list[int], den: list[int]) -> list[int]:
    # den is monic here; division must leave no remainder.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn]
        out[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    if any(num[:dn]):
        raise InternalError("inexact cyclotomic polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n == 1:
        return (-1, 1)
    num = [0] * (n + 1)
    num[0] = -1
    num[n] = 1
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul_int(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_div_exact_int(num, den))


@lru_cache(maxsize=64)
def _reduction_rows(n: int) -> tuple[tuple[int, ...], ...]:
    """Row e (0 <= e < n) is zeta_n^e written in the power basis, integer."""
    phi = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    top = [-c for c in phi_poly[:phi]]
    rows: list[tuple[int, ...]] = []
    for e in range(n):
        if e < phi:
            rows.append(tuple(1 if i == e else 0 for i in range(phi)))
            continue
        prev = rows[e - 1]
        overflow = prev[phi - 1]
        shifted = [0] + list(prev[: phi - 1])
        if overflow:
            shifted = [s + overflow * t for s, t in zip(shifted, top)]
        rows.append(tuple(shifted))
    return tuple(rows)


@lru_cache(maxsize=64)
def _power_index(n: int) -> dict[tuple[int, ...], int]:
    """The inverse of `_reduction_rows`: zeta_n^e in the power basis -> e."""
    return {row: e for e, row in enumerate(_reduction_rows(n))}


def reduce_int_counts(order: int, counts: Iterable[int]) -> list[int]:
    """Reduce an exponent-count vector (index = power of zeta) mod Phi_N.

    Integer in, integer out; used by the Gauss-sum and fusion fast paths.
    """
    _check_order(order)
    phi = euler_phi(order)
    rows = _reduction_rows(order)
    out = [0] * phi
    for e, c in enumerate(counts):
        if c:
            c = int(c)  # numpy scalars overflow on later bigint arithmetic
            row = rows[e % order]
            for i in range(phi):
                if row[i]:
                    out[i] += c * row[i]
    return out


class ComplexInterval(NamedTuple):
    """A rectangle [re_lo, re_hi] x [im_lo, im_hi] with rational endpoints."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    @property
    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def contains(self, re: Fraction, im: Fraction) -> bool:
        return self.re_lo <= re <= self.re_hi and self.im_lo <= im <= self.im_hi

    def midpoint(self) -> tuple[Fraction, Fraction]:
        return ((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)

    def strictly_positive_real(self) -> bool:
        return self.re_lo > 0

    def strictly_negative_real(self) -> bool:
        return self.re_hi < 0


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


class CyclotomicNumber:
    """Immutable exact element of a cyclotomic field."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Scalar]):
        _check_order(order)
        raw = [as_fraction(c) if not isinstance(c, Fraction) else c for c in coeffs]
        phi = euler_phi(order)
        if len(raw) > phi:
            raise ValidationError("unreduced coefficient vector; use from_exponents")
        if len(raw) < phi:
            raw.extend([Fraction(0)] * (phi - len(raw)))
        if len(raw) != phi:
            raise ValidationError(
                f"need {phi} coefficients for order {order}, got {len(raw)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(raw))

    def __setattr__(self, *args) -> None:
        raise AttributeError("CyclotomicNumber is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar) -> "CyclotomicNumber":
        return cls(1, [as_fraction(value)])

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls.from_rational(1)

    @classmethod
    def from_exponents(cls, order: int,
                       terms: dict[int, Scalar]) -> "CyclotomicNumber":
        """Sum of c * zeta_order^e over (e, c) pairs; exponents mod order."""
        _check_order(order)
        phi = euler_phi(order)
        rows = _reduction_rows(order)
        acc = [Fraction(0)] * phi
        for e, c in terms.items():
            c = as_fraction(c)
            if c == 0:
                continue
            row = rows[e % order]
            for i in range(phi):
                if row[i]:
                    acc[i] += c * row[i]
        return cls(order, acc)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if all(c == 0 for c in self.coeffs[1:]):
            return self.coeffs[0]
        return None

    def is_integer(self) -> int | None:
        q = self.is_rational()
        if q is not None and q.denominator == 1:
            return int(q)
        return None

    def embed(self, new_order: int) -> "CyclotomicNumber":
        """Rewrite in the field of order new_order (old order must divide it)."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValidationError(
                f"cannot embed order {self.order} into {new_order}")
        step = new_order // self.order
        terms = {i * step: c for i, c in enumerate(self.coeffs) if c != 0}
        return CyclotomicNumber.from_exponents(new_order, terms)

    def _common(self, other: "CyclotomicNumber") -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        n = _lcm(self.order, other.order)
        _check_order(n)
        return self.embed(n), other.embed(n)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CyclotomicNumber | None":
        if isinstance(value, CyclotomicNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return CyclotomicNumber.from_rational(value)
        return None

    def __add__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            return CyclotomicNumber(self.order, [c * f for c in self.coeffs])
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._common(other)
        n = a.order
        terms: dict[int, Fraction] = {}
        nz_b = [(j, cj) for j, cj in enumerate(b.coeffs) if cj != 0]
        for i, ci in enumerate(a.coeffs):
            if ci == 0:
                continue
            for j, cj in nz_b:
                e = (i + j) % n
                terms[e] = terms.get(e, Fraction(0)) + ci * cj
        return CyclotomicNumber.from_exponents(n, terms)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        if self.is_zero():
            raise ValidationError("division by zero cyclotomic number")
        q = self.is_rational()
        if q is not None:
            return CyclotomicNumber(self.order, [1 / q] + [Fraction(0)] * (len(self.coeffs) - 1))
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        u = _poly_xgcd_mod(list(self.coeffs), phi_poly)
        return CyclotomicNumber(self.order, u)

    def __truediv__(self, other) -> "CyclotomicNumber":
        if isinstance(other, (int, Fraction)):
            f = as_fraction(other)
            if f == 0:
                raise ValidationError("division by zero")
            return self * (1 / f)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k: int) -> "CyclotomicNumber":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        result = CyclotomicNumber.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def conjugate(self) -> "CyclotomicNumber":
        """Complex conjugation, zeta -> zeta^(-1)."""
        n = self.order
        terms = {(-i) % n: c for i, c in enumerate(self.coeffs) if c != 0}
        return CyclotomicNumber.from_exponents(n, terms)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality crosses orders; no cheap consistent hash

    def __repr__(self) -> str:
        nz = [(i, c) for i, c in enumerate(self.coeffs) if c != 0]
        if not nz:
            return "Cyclo(0)"
        body = " + ".join(f"{c}*z{self.order}^{i}" if i else str(c) for i, c in nz)
        return f"Cyclo({body})"


def _poly_xgcd_mod(a: list[Fraction], modulus: list[Fraction]) -> list[Fraction]:
    """u with a*u = 1 mod modulus, for modulus irreducible and a nonzero."""

    def degree(p: list[Fraction]) -> int:
        for i in range(len(p) - 1, -1, -1):
            if p[i] != 0:
                return i
        return -1

    def divmod_poly(num: list[Fraction], den: list[Fraction]):
        num = list(num)
        dd = degree(den)
        lead = den[dd]
        q = [Fraction(0)] * max(1, len(num) - dd)
        for k in range(degree(num) - dd, -1, -1):
            c = num[k + dd] / lead
            if c != 0:
                q[k] = c
                for j in range(dd + 1):
                    num[k + j] -= c * den[j]
        return q, num[:dd] if dd > 0 else [Fraction(0)]

    r0, r1 = list(modulus), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while degree(r1) > 0:
        q, r = divmod_poly(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul_frac(q, s1)
        s_new = [x - y for x, y in _pad_pair(s0, qs)]
        s0, s1 = s1, s_new
    if degree(r1) != 0:
        raise InternalError("xgcd of nonzero element with Phi_N hit zero gcd")
    c = r1[0]
    result = [x / c for x in s1]
    # Reduce mod modulus to keep degree < phi.
    _, rem = divmod_poly(result, modulus) if degree(result) >= degree(modulus) else (None, result)
    rem = list(rem) + [Fraction(0)] * (degree(modulus) - len(rem))
    return rem[: degree(modulus)]


def _poly_mul_frac(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0:
            for j, y in enumerate(b):
                if y != 0:
                    out[i + j] += x * y
    return out


def _pad_pair(a: list[Fraction], b: list[Fraction]):
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return zip(a, b)


def root_of_unity(phase: PhaseMod1 | Fraction | int | str) -> CyclotomicNumber:
    """exp(2*pi*i*phase) for a rational phase, exact."""
    if isinstance(phase, PhaseMod1):
        fr = phase.value
    else:
        fr = as_fraction(phase) % 1
    order = fr.denominator
    return CyclotomicNumber.from_exponents(order, {fr.numerator: 1})


def sum_of_phases(phases: Iterable[PhaseMod1 | Fraction]) -> CyclotomicNumber:
    """Sum of exp(2*pi*i*t) over the phases, with one reduction at the end."""
    fracs = []
    order = 1
    for t in phases:
        fr = (t.value if isinstance(t, PhaseMod1) else as_fraction(t)) % 1
        fracs.append(fr)
        order = _lcm(order, fr.denominator)
    _check_order(order)
    counts = [0] * order
    for fr in fracs:
        counts[(fr.numerator * (order // fr.denominator)) % order] += 1
    reduced = reduce_int_counts(order, counts)
    return CyclotomicNumber(order, [Fraction(c) for c in reduced])


def _mpf_to_fraction(x) -> Fraction:
    if x == 0:
        return Fraction(0)
    try:
        sign, man, exp, _ = x._mpf_
    except (AttributeError, ValueError) as e:  # pragma: no cover
        raise InternalError(f"unexpected mpf value {x!r}") from e
    if not isinstance(exp, int):  # pragma: no cover
        raise InternalError(f"non-finite mpf value {x!r}")
    value = Fraction(int(man))
    value = -value if sign else value
    return value * Fraction(2) ** exp


def cyclo_approx(z: CyclotomicNumber, bits: int = 128) -> ComplexInterval:
    """Certified rectangle containing z; width at most 2^(1-bits)."""
    return _enclose(z.order, z.coeffs, bits)


def _enclose(n: int, coeffs: Sequence[Scalar], bits: int) -> ComplexInterval:
    """Certified rectangle containing sum_i coeffs[i] zeta_n^i, reduced or
    not; width at most 2^(1-bits).

    Each root of unity is evaluated by mpmath.cospi/sinpi at a working
    precision chosen so the summed per-term envelope (a deliberately fat
    2^5 ulp per term) stays below 2^-bits.
    """
    if bits < 32:
        raise ValidationError("cyclo_approx needs bits >= 32")
    total = sum(abs(c) for c in coeffs)
    if total == 0:
        zero = Fraction(0)
        return ComplexInterval(zero, zero, zero, zero)
    # total * 2^(5-prec) <= 2^(-bits)  <=  prec >= bits + 5 + log2(total)
    prec = bits + 6 + max(0, math.ceil(math.log2(float(total) + 1)))
    re_acc = Fraction(0)
    im_acc = Fraction(0)
    with mpmath.workprec(prec):
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            arg = mpmath.mpf(2 * i) / n
            re_acc += c * _mpf_to_fraction(mpmath.cospi(arg))
            im_acc += c * _mpf_to_fraction(mpmath.sinpi(arg))
    err = total * Fraction(2) ** (5 - prec)
    if err > Fraction(1, 2 ** bits):  # pragma: no cover
        raise InternalError("approximation envelope exceeded request")
    return ComplexInterval(re_acc - err, re_acc + err, im_acc - err, im_acc + err)


def gauss_phase(order: int, counts: Sequence[int], norm: int,
                bits: int = 128) -> Fraction | None:
    """The phase t in [0, 1) with G = sqrt(norm) exp(2 pi i t), for the sum
    G = sum_e counts[e] zeta_order^e with integer counts, or None when G is
    not of that form.

    G^2 is the cyclic convolution of the counts, reduced mod Phi_order in
    integers; it must be norm times +-zeta_order^e, which fixes 2t mod 1.
    The two candidates for t differ by 1/2, so G turned back by the first
    is +-sqrt(norm) with norm >= 1, and one certified interval (the
    enclosure `cyclo_approx` uses, on integer coordinates) reads the sign.
    No `CyclotomicNumber` is built.
    """
    c = np.zeros(order, dtype=np.int64 if sum(map(abs, counts)) < 2 ** 31 else object)
    c[:len(counts)] = counts
    full = np.convolve(c, c)
    squared = full[:order].copy()
    squared[:order - 1] += full[order:]
    coeffs = reduce_int_counts(order, squared)
    if any(x % norm for x in coeffs):
        return None
    index = _power_index(order)
    target = tuple(x // norm for x in coeffs)
    if target in index:
        twice = Fraction(index[target], order)
    else:
        e = index.get(tuple(-x for x in target))
        if e is None:
            return None
        twice = (Fraction(e, order) + Fraction(1, 2)) % 1
    t = twice / 2
    rot = math.lcm(order, t.denominator)
    turned = [0] * rot  # G zeta^(-t), over the order rot
    for e, k in enumerate(c.tolist()):
        turned[(e * (rot // order) - t.numerator * (rot // t.denominator)) % rot] = k
    box = _enclose(rot, reduce_int_counts(rot, turned), bits)
    if box.strictly_positive_real():
        return t
    if box.strictly_negative_real():
        return t + Fraction(1, 2)
    raise InternalError("certified interval failed to separate the two phases")
