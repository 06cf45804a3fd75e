"""The `Fraction`-coefficient cyclotomic arithmetic the library used
before it kept integer numerators over one denominator, kept as the oracle
for `CyclotomicNumber`.

It shares no code with the library: Phi_n is divided out of x^n - 1 by
schoolbook polynomial arithmetic, each power of zeta is reduced term by
term, and the inverse is a polynomial extended gcd over Q.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_div_exact(num, den):
    # den is monic; the division leaves no remainder.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for k in range(len(num) - dn - 1, -1, -1):
        c = num[k + dn]
        out[k] = c
        if c:
            for j, y in enumerate(den):
                num[k + j] -= c * y
    assert not any(num[:dn]), "inexact cyclotomic polynomial division"
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Phi_n = (x^n - 1) / prod over proper divisors d of Phi_d."""
    if n == 1:
        return (-1, 1)
    den = [1]
    for d in range(1, n):
        if n % d == 0:
            den = _poly_mul(den, list(cyclotomic_polynomial(d)))
    return tuple(_poly_div_exact([-1] + [0] * (n - 1) + [1], den))


@lru_cache(maxsize=None)
def _reduction_tuples(n):
    """Row e is zeta_n^e in the power basis, by x^e = x * x^(e-1)."""
    phi = euler_phi(n)
    top = [-c for c in cyclotomic_polynomial(n)[:phi]]
    rows = [tuple(int(i == e) for i in range(phi)) for e in range(phi)]
    for _ in range(phi, n):
        prev = rows[-1]
        rows.append(tuple((prev[i - 1] if i else 0) + prev[-1] * top[i]
                          for i in range(phi)))
    return tuple(rows)


class FractionCyclotomic:
    """sum_i coeffs[i] zeta_order^i with `Fraction` coefficients."""

    def __init__(self, order, coeffs):
        raw = [Fraction(c) for c in coeffs]
        phi = euler_phi(order)
        assert len(raw) <= phi, "unreduced coefficient vector"
        self.order = order
        self.coeffs = tuple(raw + [Fraction(0)] * (phi - len(raw)))

    @classmethod
    def from_exponents(cls, order, terms):
        phi = euler_phi(order)
        rows = _reduction_tuples(order)
        acc = [Fraction(0)] * phi
        for e, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            row = rows[e % order]
            for i in range(phi):
                if row[i]:
                    acc[i] += c * row[i]
        return cls(order, acc)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def embed(self, new_order):
        if new_order == self.order:
            return self
        assert new_order % self.order == 0
        step = new_order // self.order
        return FractionCyclotomic.from_exponents(
            new_order, {i * step: c for i, c in enumerate(self.coeffs) if c != 0})

    def _common(self, other):
        n = self.order * other.order // gcd(self.order, other.order)
        return self.embed(n), other.embed(n)

    def __add__(self, other):
        a, b = self._common(other)
        return FractionCyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __neg__(self):
        return FractionCyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self._common(other)
        n = a.order
        terms = {}
        for i, ci in enumerate(a.coeffs):
            for j, cj in enumerate(b.coeffs):
                if ci and cj:
                    terms[(i + j) % n] = terms.get((i + j) % n, 0) + ci * cj
        return FractionCyclotomic.from_exponents(n, terms)

    def conjugate(self):
        n = self.order
        return FractionCyclotomic.from_exponents(
            n, {(-i) % n: c for i, c in enumerate(self.coeffs) if c != 0})

    def inverse(self):
        assert not self.is_zero()
        modulus = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        return FractionCyclotomic(self.order, _poly_xgcd_mod(list(self.coeffs), modulus))


def _degree(p):
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _divmod_poly(num, den):
    num = list(num)
    dd = _degree(den)
    q = [Fraction(0)] * max(1, len(num) - dd)
    for k in range(_degree(num) - dd, -1, -1):
        c = num[k + dd] / den[dd]
        if c != 0:
            q[k] = c
            for j in range(dd + 1):
                num[k + j] -= c * den[j]
    return q, num[:dd] if dd > 0 else [Fraction(0)]


def _poly_xgcd_mod(a, modulus):
    """u with a*u = 1 mod modulus, for modulus irreducible and a nonzero."""
    r0, r1 = list(modulus), list(a)
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while _degree(r1) > 0:
        q, r = _divmod_poly(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul(q, s1)
        width = max(len(s0), len(qs))
        s0, s1 = s1, [x - y for x, y in zip(s0 + [0] * (width - len(s0)),
                                            qs + [0] * (width - len(qs)))]
    assert _degree(r1) == 0, "xgcd of a nonzero element with Phi_N hit zero"
    result = [x / r1[0] for x in s1]
    deg = _degree(modulus)
    if _degree(result) >= deg:
        _, result = _divmod_poly(result, modulus)
    return (list(result) + [Fraction(0)] * deg)[:deg]
