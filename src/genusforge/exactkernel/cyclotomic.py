"""Exact cyclotomic numbers in the power basis modulo Phi_N.

A value is a Q-linear combination of 1, zeta, ..., zeta^(phi(N)-1) for a
root of unity zeta of order N, stored as integer numerators `num` over one
positive denominator `den` with gcd 1.  The basis is a genuine Q-basis, so
the reduced (order, num, den) is canonical and equality is equality of it
after embedding into the lcm order.  Every operation writes its result as
integer counts over powers of zeta and reduces them mod Phi_N with one
integer matrix product (`reduce_int_counts`): embedding, conjugation and
the Galois maps send zeta^i to zeta^(a i), and a product is a convolution.
The inverse is the product of the other Galois conjugates divided by the
rational norm, so no polynomial gcd is taken.  Orders widen lazily up to
`ORDER_CAP`; past it an operation raises LimitError instead of thrashing.

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
from .intmatrix import _factorize
from .rationals import as_fraction

ORDER_CAP = 10080

Scalar = Union[int, Fraction]


def _check_order(n: int) -> None:
    if n < 1:
        raise ValidationError(f"cyclotomic order must be positive, got {n}")
    if n > ORDER_CAP:
        raise LimitError(f"cyclotomic order {n} exceeds cap {ORDER_CAP}")


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    primes = _factorize(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic.

    Phi_n(x) = Phi_m(x^(n/m)) for m the product of the primes of n, and
    Phi_m is the product of (1 - x^d)^mu(m/d) over d | m for m > 1, taken
    here as a power series cut after degree phi(m).
    """
    if n == 1:
        return (-1, 1)
    primes = _factorize(n)
    m = math.prod(primes)
    phi = euler_phi(m)
    series = [1] + [0] * phi
    for k in range(1 << len(primes)):
        chosen = [p for i, p in enumerate(primes) if k >> i & 1]
        d = m // math.prod(chosen)
        if len(chosen) % 2 == 0:  # times 1 - x^d
            for i in range(phi, d - 1, -1):
                series[i] -= series[i - d]
        else:  # divided by 1 - x^d
            for i in range(d, phi + 1):
                series[i] += series[i - d]
    out = [0] * (n // m * phi + 1)
    out[::n // m] = series
    return tuple(out)


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
def _row_bound(n: int) -> int:
    """The largest |entry| of `_reduction_rows(n)`."""
    rows = _reduction_rows(n)
    return int(max(rows.max(), -rows.min()))


@lru_cache(maxsize=64)
def _power_index(n: int) -> dict[tuple[int, ...], int]:
    """The inverse of `_reduction_rows`: zeta_n^e in the power basis -> e."""
    return {row: e for e, row in enumerate(map(tuple, _reduction_rows(n).tolist()))}


def reduce_int_counts(order: int, counts) -> np.ndarray:
    """Power-basis coordinates of sum_e counts[..., e] zeta_order^e, for
    integer counts along the last axis (exponents taken mod order).

    One integer matrix product, in int64 when no entry can overflow and in
    Python integers otherwise; input that is not an array is read as
    Python integers.  A single vector reduces only the rows of the
    exponents that occur, so a sparse vector costs what its terms do.
    """
    _check_order(order)
    if not isinstance(counts, np.ndarray):
        counts = np.array(counts, dtype=object)
        if not all(isinstance(c, (int, np.integer)) for c in counts.flat):
            raise ValidationError("counts must be integers")
    elif counts.dtype.kind not in "iuO":
        raise ValidationError(f"counts must be integers, got dtype {counts.dtype}")
    if counts.ndim == 1:
        occur = counts.nonzero()[0]
        counts = counts[occur]
    else:
        occur = np.arange(counts.shape[-1])
    rows = _reduction_rows(order).take(occur, axis=0, mode="wrap")
    if (counts.size == 0 or int(np.abs(counts).max()) * counts.shape[-1]
            * _row_bound(order) < 2 ** 63):
        return counts.astype(np.int64, copy=False) @ rows
    return counts.astype(object) @ rows.astype(object)


def _convolve(a: Sequence[int], b: Sequence[int]) -> np.ndarray:
    """The exact product of two integer polynomials, ascending degree."""
    # the factors of 1 keep the bound above each coefficient when the other
    # polynomial is zero
    bound = max(1, *map(abs, a)) * max(1, *map(abs, b)) * min(len(a), len(b))
    dtype = np.int64 if bound < 2 ** 63 else object
    return np.convolve(np.array(a, dtype=dtype), np.array(b, dtype=dtype))


def _clear(values: Iterable) -> tuple[list[int], int]:
    """Rationals (ints, Fractions or their strings) as integer numerators
    over their least common denominator."""
    vals = list(values)
    if set(map(type, vals)) <= {int}:
        return vals, 1
    vals = [v if isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            else as_fraction(v) for v in vals]
    den = math.lcm(*(int(v.denominator) for v in vals))
    return [int(v.numerator) * (den // int(v.denominator)) for v in vals], den


class ComplexInterval(NamedTuple):
    """A rectangle [re_lo, re_hi] x [im_lo, im_hi] with rational endpoints."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    @property
    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def strictly_positive_real(self) -> bool:
        return self.re_lo > 0

    def strictly_negative_real(self) -> bool:
        return self.re_hi < 0


class CyclotomicNumber:
    """Immutable exact element of a cyclotomic field: sum_i num[i] zeta^i
    / den over the power basis of zeta = exp(2 pi i / order)."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs: Iterable[Scalar], den: int = 1):
        """The value sum_i coeffs[i] zeta_order^i / den, for at most phi(order)
        rational coefficients (missing ones are 0) and a nonzero integer den."""
        _check_order(order)
        num = list(coeffs)
        phi = euler_phi(order)
        if len(num) > phi:
            raise ValidationError("unreduced coefficient vector; use from_exponents")
        num, common = _clear(num + [0] * (phi - len(num)))
        den *= common
        if den == 0:
            raise ValidationError("zero denominator")
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        if g != 1:
            num, den = [c // g for c in num], den // g
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args) -> None:
        raise AttributeError("CyclotomicNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates num[i] / den."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_rational(cls, value: Scalar) -> "CyclotomicNumber":
        return cls(1, [value])

    @classmethod
    def zero(cls) -> "CyclotomicNumber":
        return cls(1, [0])

    @classmethod
    def one(cls) -> "CyclotomicNumber":
        return cls(1, [1])

    @classmethod
    def from_exponents(cls, order: int,
                       terms: dict[int, Scalar]) -> "CyclotomicNumber":
        """Sum of c * zeta_order^e over (e, c) pairs; exponents mod order."""
        _check_order(order)
        num, den = _clear(terms.values())
        return _from_terms(order, [e % order for e in terms], num, den)

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> Fraction | None:
        """The value as a Fraction if it lies in Q, else None."""
        if any(self.num[1:]):
            return None
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> int | None:
        if self.den != 1 or any(self.num[1:]):
            return None
        return self.num[0]

    def _power_map(self, order: int, a: int) -> "CyclotomicNumber":
        """zeta_self.order^i -> zeta_order^(a i) applied to self: a Galois
        map for a unit a mod the same order, an embedding for a = the
        ratio of the orders."""
        exps = np.arange(0, a * len(self.num), a) % order
        return _from_terms(order, exps, self.num, self.den)

    def embed(self, new_order: int) -> "CyclotomicNumber":
        """Rewrite in the field of order new_order (old order must divide it)."""
        if new_order == self.order:
            return self
        if new_order % self.order != 0:
            raise ValidationError(
                f"cannot embed order {self.order} into {new_order}")
        if self.order == 1:  # a rational keeps its one coordinate
            return CyclotomicNumber(new_order, self.num, self.den)
        return self._power_map(new_order, new_order // self.order)

    def _common(self, other: "CyclotomicNumber") -> tuple["CyclotomicNumber", "CyclotomicNumber"]:
        n = math.lcm(self.order, other.order)
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
        return CyclotomicNumber(a.order, [x * b.den + y * a.den
                                          for x, y in zip(a.num, b.num)], a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.order, [-c for c in self.num], self.den)

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        product = reduce_int_counts(a.order, _convolve(a.num, b.num))
        return CyclotomicNumber(a.order, product.tolist(), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """1/x = (product of the other Galois conjugates of x) / N(x), with
        the rational norm N(x) = x times that product."""
        if self.is_zero():
            raise ValidationError("division by zero cyclotomic number")
        n = self.order
        y = CyclotomicNumber(n, self.num)  # x * den, an algebraic integer
        others = CyclotomicNumber.one()
        for a in range(2, n):
            if math.gcd(a, n) == 1:
                others = others * y._power_map(n, a)
        norm = (y * others).is_integer()
        if norm is None:
            raise InternalError("the norm of a cyclotomic number is not rational")
        return CyclotomicNumber(n, [c * self.den for c in others.num], norm)

    def __truediv__(self, other) -> "CyclotomicNumber":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

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
        return self._power_map(self.order, -1)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._common(o)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equality crosses orders; no cheap consistent hash

    def __repr__(self) -> str:
        nz = [(i, c) for i, c in enumerate(self.coeffs) if c != 0]
        if not nz:
            return "Cyclo(0)"
        body = " + ".join(f"{c}*z{self.order}^{i}" if i else str(c) for i, c in nz)
        return f"Cyclo({body})"


def _from_terms(order: int, exps, num: Sequence[int], den: int) -> CyclotomicNumber:
    """sum_k num[k] zeta_order^exps[k] / den, for exponents in [0, order)
    that may repeat."""
    small = max(map(abs, num), default=0) * len(num) < 2 ** 63
    counts = np.zeros(order, dtype=np.int64 if small else object)
    np.add.at(counts, np.asarray(exps, dtype=np.int64), np.array(num, dtype=counts.dtype))
    return CyclotomicNumber(order, reduce_int_counts(order, counts).tolist(), den)


def root_of_unity(phase: Fraction | int | str) -> CyclotomicNumber:
    """exp(2*pi*i*phase) for a rational phase, exact."""
    fr = as_fraction(phase) % 1
    return CyclotomicNumber.from_exponents(fr.denominator, {fr.numerator: 1})


# Table precisions are rounded up to a multiple of this many bits, so one
# cached table serves every request whose precision rounds to it.
_PREC_STEP = 32

# The least `bits` an enclosure takes, and all `gauss_phase` needs: its turned
# sum is +-sqrt(norm), and an error below 2^-32 of the unit reads its sign.
_MIN_BITS = 32


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


def _circle_sums(n: int, ints: Sequence[int], scale: int, bits: int) -> tuple[int, ...]:
    """(re, im, err, prec): z = sum_e ints[e] zeta_n^e / scale (reduced or not,
    scale >= 1) lies in the rectangle (re +- err, im +- err) / (2^prec scale),
    of width at most 2^(1-bits).  `_unit_circle(n, prec)` is within 1 of
    2^prec cos and sin, so sum_e ints[e] C[e] is within T = sum_e |ints[e]|
    of 2^prec scale Re(z), and err = 2T.  prec = bits + k, k >= 0 with
    2^k scale >= 2T, rounded up to a multiple of `_PREC_STEP`."""
    if bits < _MIN_BITS:
        raise ValidationError(f"cyclo_approx needs bits >= {_MIN_BITS}")
    total = sum(map(abs, ints))
    if total == 0:
        return 0, 0, 0, 0
    prec = bits + max(0, (2 * total).bit_length() - scale.bit_length() + 1)
    prec = -(-prec // _PREC_STEP) * _PREC_STEP
    cos, sin = _unit_circle(n, prec)
    re = sum(a * c for a, c in zip(ints, cos) if a)
    im = sum(a * s for a, s in zip(ints, sin) if a)
    return re, im, 2 * total, prec


def _enclose(n: int, coeffs: Sequence[Scalar], bits: int) -> ComplexInterval:
    """The `_circle_sums` rectangle of sum_e coeffs[e] zeta_n^e, with the
    coefficients as integers over their least common denominator."""
    ints, scale = _clear(coeffs)
    re, im, err, prec = _circle_sums(n, ints, scale, bits)
    den = scale << prec
    return ComplexInterval(Fraction(re - err, den), Fraction(re + err, den),
                           Fraction(im - err, den), Fraction(im + err, den))


def gauss_phase(order: int, counts: Sequence[int], norm: int) -> int | None:
    """The t in [0, 4 order) with G = sqrt(norm) zeta_(4 order)^t, for the sum
    G = sum_e counts[e] zeta_order^e with integer counts, or None when G is
    not of that form.

    G^2 is the cyclic convolution of the counts, reduced mod Phi_order in
    integers; it must be norm times +-zeta_order^e, which fixes t mod
    2 order.  The two candidates differ by a half turn, so G turned back by
    the first is +-sqrt(norm) with norm >= 1, and the integer real part of
    `_circle_sums` at `_MIN_BITS`, within err/2 of 2^prec times that and
    with err < 2^(prec-32), has its sign.  The turned counts are taken as
    they are, over zeta_rot for rot = lcm(order, denominator of t/(4 order)):
    reducing them mod Phi_rot would not change the value.
    """
    counts = counts.tolist() if isinstance(counts, np.ndarray) else list(counts)
    coeffs = reduce_int_counts(order, _convolve(counts, counts)).tolist()
    if any(x % norm for x in coeffs):
        return None
    index = _power_index(order)
    target = tuple(x // norm for x in coeffs)
    if target in index:  # G^2 = norm zeta_(2 order)^t
        t = 2 * index[target]
    else:
        e = index.get(tuple(-x for x in target))
        if e is None:
            return None
        t = (2 * e + order) % (2 * order)
    rot = math.lcm(order, 4 * order // math.gcd(t, 4 * order))
    shift = t * rot // (4 * order)
    turned = [0] * rot  # G zeta_(4 order)^(-t), over the order rot
    for e, k in enumerate(counts):
        turned[(e * (rot // order) - shift) % rot] = k
    re, _, err, _ = _circle_sums(rot, turned, 1, _MIN_BITS)
    if re > err:
        return t
    if re < -err:
        return t + 2 * order
    raise InternalError("integer sign test failed to separate the two phases")
