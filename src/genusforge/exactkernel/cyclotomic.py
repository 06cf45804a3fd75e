"""Exact cyclotomic numbers in the power basis modulo Phi_N.

A value is a Q-linear combination of 1, zeta, ..., zeta^(phi(N)-1) for a
root of unity zeta of order N.  The basis is a genuine Q-basis, so reduced
coordinate tuples are canonical and equality is coordinate equality after
embedding into the lcm order.  Orders widen lazily and are capped (default
10080) so runaway lcm growth raises LimitError instead of thrashing.

No floating point enters any algebraic operation, and none enters the
enclosures either.  `cyclo_approx` returns a certified complex rectangle
built from integer tables of 2^prec cos and 2^prec sin of 2 pi e/n, each
entry within 1 of the true value by a proof carried out in integers (pi
by Machin's formula, octant reduction, fixed-point Taylor series); the
proof is in the docstring of `_unit_circle`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence, Union

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
def _reduction_rows(n: int) -> np.ndarray:
    """Row e (0 <= e < n) is zeta_n^e written in the power basis, as a
    read-only integer array of shape (n, phi(n))."""
    phi = euler_phi(n)
    phi_poly = cyclotomic_polynomial(n)
    rows = np.zeros((n, phi), dtype=np.int64)
    rows[:phi] = np.eye(phi, dtype=np.int64)
    # x^phi = -(c_0 + c_1 x + ... + c_{phi-1} x^{phi-1})
    top = -np.array(phi_poly[:phi], dtype=np.int64)
    for e in range(phi, n):
        rows[e, 1:] = rows[e - 1, :-1]
        rows[e, 0] = 0
        rows[e] += rows[e - 1, -1] * top
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=64)
def _reduction_tuples(n: int) -> tuple[tuple[int, ...], ...]:
    """`_reduction_rows` as tuples of Python ints, for per-term loops."""
    return tuple(map(tuple, _reduction_rows(n).tolist()))


@lru_cache(maxsize=64)
def _power_index(n: int) -> dict[tuple[int, ...], int]:
    """The inverse of `_reduction_rows`: zeta_n^e in the power basis -> e."""
    return {row: e for e, row in enumerate(_reduction_tuples(n))}


def _reduce_counts(order: int, counts) -> np.ndarray:
    """Power-basis coordinates of sum_e counts[..., e] zeta_order^e for
    integer counts along the last axis (exponents taken mod order): one
    integer matrix product, in Python integers when int64 could overflow."""
    _check_order(order)
    counts = np.asarray(counts)
    if counts.shape[-1] != order:
        pad = np.zeros(counts.shape[:-1] + (-counts.shape[-1] % order,), counts.dtype)
        counts = np.concatenate([counts, pad], axis=-1)
        counts = counts.reshape(counts.shape[:-1] + (-1, order)).sum(axis=-2)
    rows = _reduction_rows(order)
    if counts.dtype != object and (
            counts.size == 0 or
            int(np.abs(counts).max()) * order * _row_bound(order) < 2 ** 63):
        return counts.astype(np.int64, copy=False) @ rows
    return counts.astype(object) @ rows.astype(object)


@lru_cache(maxsize=64)
def _row_bound(n: int) -> int:
    """The largest |entry| of `_reduction_rows(n)`."""
    return int(np.abs(_reduction_rows(n)).max())


def reduce_int_counts(order: int, counts: Iterable[int]) -> list[int]:
    """Reduce an exponent-count vector (index = power of zeta) mod Phi_N.

    Integer in, integer out; used by the Gauss-sum and fusion fast paths.
    """
    if not isinstance(counts, np.ndarray):
        counts = list(counts)
    return _reduce_counts(order, counts).tolist()


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
        rows = _reduction_tuples(order)
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


# Table precisions are rounded up to a multiple of this many bits, so one
# cached table serves every request whose precision rounds to it.
_PREC_STEP = 32


def _arctan_inv(x: int, w: int) -> tuple[int, int]:
    """(A, err) with |A - 2^w arctan(1/x)| <= err, for an integer x >= 2.

    A sums floor(2^w / ((2k+1) x^(2k+1))) with alternating signs until a
    term floors to 0.  Each of the K terms added is off by less than 1,
    and the tail of the alternating series, whose terms decrease, is at
    most its first term, which is below 1.  So err = K + 1.
    """
    total, k, den, x2 = 0, 0, x, x * x
    while term := (1 << w) // ((2 * k + 1) * den):
        total += -term if k & 1 else term
        k += 1
        den *= x2
    return total, k + 1


def _pi_fixed(w: int) -> tuple[int, int]:
    """(P, err) with |P - 2^w pi| <= err, by Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a5, e5 = _arctan_inv(5, w)
    a239, e239 = _arctan_inv(239, w)
    return 16 * a5 - 4 * a239, 16 * e5 + 4 * e239


def _taylor(x2: int, w: int, first: int, start: int) -> tuple[int, int]:
    """(V, K): V = sum_k (-1)^k T_k for T_0 = first and
    T_k = floor(T_(k-1) x2 / (2^(2w) (start+2k-1)(start+2k))), stopped at
    the first T_K = 0; x2 = x^2 for an argument 0 <= x < 2^w."""
    total, t, k = 0, first, 0
    while t:
        total += -t if k & 1 else t
        k += 1
        t = (t * x2 >> 2 * w) // ((start + 2 * k - 1) * (start + 2 * k))
    return total, k


# Octant o = floor(8e/n) of the angle 2 pi e/n, as (swap, sign of cos,
# sign of sin) applied to (cos, sin) of the reduced angle in [0, pi/4].
_OCTANTS = ((False, 1, 1), (True, 1, 1), (True, -1, 1), (False, -1, 1),
            (False, -1, -1), (True, -1, -1), (True, 1, -1), (False, 1, -1))


@lru_cache(maxsize=64)
def _unit_circle(n: int, prec: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(C, S) with |C[e] - 2^prec cos(2 pi e/n)| <= 1 and the same for S
    and sin, for 0 <= e < n, in integer arithmetic only.

    Proof of the bound.  Work at w = prec + g bits.  Write 8e = o n + r
    with 0 <= r < n.  The angle is o pi/4 + r pi/(4n), so by the octant
    symmetries (`_OCTANTS`) cos and sin of it are +-cos or +-sin of
    phi = j pi/(4n) with j = r for even o and j = n - r for odd o; phi
    lies in [0, pi/4].  Only integers enter below.

    - pi: P = `_pi_fixed(w)` has |P - 2^w pi| <= E_pi, counted.
    - Argument: x = floor(j P/(4n)), so |x - 2^w phi| <= j E_pi/(4n) + 1
      <= E_pi/4 + 1 =: E_x.  Since |cos'|, |sin'| <= 1, cos and sin of
      y = x/2^w differ from those of phi by at most E_x units of 2^-w.
      Also y < 1, as phi <= pi/4 and E_x is far below 2^w/5.
    - Series: the terms u_k of cos y (T_0 = 2^w) and sin y (T_0 = x) are
      formed by `_taylor` with one floor per term, so the error
      eps_k = T_k - 2^w u_k obeys |eps_k| <= |eps_(k-1)| y^2/2 + 1, and
      |eps_k| < 2 by induction from eps_0 = 0.  The K terms summed are
      off by less than 2K together.  The terms decrease (y < 1), so the
      remainder of the alternating series is at most 2^w u_K
      = -eps_K < 2 units, where T_K = 0 stopped the sum.
    - Rounding: with E = E_x + 2K + 2 <= 2^(g-1), checked for every angle,
      the value V at w bits is within E of 2^w cos phi, and
      C = floor((V + 2^(g-1)) / 2^g) is within 1/2 + E/2^g <= 1 of
      2^prec cos phi.  Signs and swaps are exact.
    """
    g = (prec + 64).bit_length() + 4
    w = prec + g
    pi, pi_err = _pi_fixed(w)
    half = 1 << (g - 1)
    reduced: dict[int, tuple[int, int]] = {}
    cos, sin = [], []
    for e in range(n):
        o, r = divmod(8 * e, n)
        j = n - r if o & 1 else r
        if j not in reduced:
            x = j * pi // (4 * n)
            x2 = x * x
            c, kc = _taylor(x2, w, 1 << w, 0)
            s, ks = _taylor(x2, w, x, 1)
            if pi_err + 4 * (2 * max(kc, ks) + 3) > 4 * half:
                raise InternalError("unit circle table lost its error bound")
            reduced[j] = ((c + half) >> g, (s + half) >> g)
        c, s = reduced[j]
        swap, sign_c, sign_s = _OCTANTS[o]
        if swap:
            c, s = s, c
        cos.append(sign_c * c)
        sin.append(sign_s * s)
    return tuple(cos), tuple(sin)


def cyclo_approx(z: CyclotomicNumber, bits: int = 128) -> ComplexInterval:
    """Certified rectangle containing z; width at most 2^(1-bits)."""
    return _enclose(z.order, z.coeffs, bits)


def _enclose(n: int, coeffs: Sequence[Scalar], bits: int) -> ComplexInterval:
    """Certified rectangle containing sum_e coeffs[e] zeta_n^e, reduced or
    not; width at most 2^(1-bits).

    The coefficients are cleared to integers a_e = L coeffs[e] by their
    common denominator L.  The entries of `_unit_circle(n, prec)` are
    within 1 of 2^prec cos and 2^prec sin, so sum_e a_e C[e] is within
    T = sum_e |a_e| of 2^prec L Re(z).  The rectangle takes twice that
    error, (sum_e a_e C[e] +- 2T) / (2^prec L), and likewise for Im(z).
    prec = bits + k with k >= 0 and 2^k L >= 2T, rounded up to a multiple
    of `_PREC_STEP`, so the width 4T / (2^prec L) is at most 2^(1-bits).
    """
    if bits < 32:
        raise ValidationError("cyclo_approx needs bits >= 32")
    scale = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c.numerator) * (scale // c.denominator) for c in coeffs]
    total = sum(map(abs, ints))
    if total == 0:
        zero = Fraction(0)
        return ComplexInterval(zero, zero, zero, zero)
    prec = bits + max(0, (2 * total).bit_length() - scale.bit_length() + 1)
    prec = -(-prec // _PREC_STEP) * _PREC_STEP
    cos, sin = _unit_circle(n, prec)
    re = sum(a * c for a, c in zip(ints, cos) if a)
    im = sum(a * s for a, s in zip(ints, sin) if a)
    err, den = 2 * total, scale << prec
    return ComplexInterval(Fraction(re - err, den), Fraction(re + err, den),
                           Fraction(im - err, den), Fraction(im + err, den))


def gauss_phase(order: int, counts: Sequence[int], norm: int,
                bits: int = 128) -> Fraction | None:
    """The phase t in [0, 1) with G = sqrt(norm) exp(2 pi i t), for the sum
    G = sum_e counts[e] zeta_order^e with integer counts, or None when G is
    not of that form.

    G^2 is the cyclic convolution of the counts, reduced mod Phi_order in
    integers; it must be norm times +-zeta_order^e, which fixes 2t mod 1.
    The two candidates for t differ by 1/2, so G turned back by the first
    is +-sqrt(norm) with norm >= 1, and one certified interval (the
    enclosure `cyclo_approx` uses) reads the sign.  The interval is taken
    of the turned counts as they are, over zeta_rot: reducing them mod
    Phi_rot would not change the value.  No `CyclotomicNumber` is built.
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
    box = _enclose(rot, turned, bits)
    if box.strictly_positive_real():
        return t
    if box.strictly_negative_real():
        return t + Fraction(1, 2)
    raise InternalError("certified interval failed to separate the two phases")
