"""The mpmath enclosure that `cyclo_approx` used before its integer tables,
kept as the oracle for them, and high-precision reference values.

`oracle_enclose` evaluates every root of unity with mpmath `cospi` and
`sinpi` at a working precision chosen so that a deliberately fat envelope
of 2^5 ulp per term stays below 2^-bits, and sums the results as
`Fraction`s.  `mp_value` and `mp_pi_scaled` give exact `Fraction`s of
mpmath values at a precision far above any table tested.
"""

import math
from fractions import Fraction

import mpmath

from genusforge.exactkernel import ComplexInterval


def mpf_to_fraction(x) -> Fraction:
    """The exact value of an mpmath mpf."""
    if x == 0:
        return Fraction(0)
    sign, man, exp, _ = x._mpf_
    value = Fraction(int(man)) * Fraction(2) ** exp
    return -value if sign else value


def oracle_enclose(n, coeffs, bits):
    """Rectangle containing sum_i coeffs[i] zeta_n^i, width <= 2^(1-bits)."""
    total = sum(abs(c) for c in coeffs)
    if total == 0:
        zero = Fraction(0)
        return ComplexInterval(zero, zero, zero, zero)
    prec = bits + 6 + max(0, math.ceil(math.log2(float(total) + 1)))
    re_acc = Fraction(0)
    im_acc = Fraction(0)
    with mpmath.workprec(prec):
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            arg = mpmath.mpf(2 * i) / n
            re_acc += c * mpf_to_fraction(mpmath.cospi(arg))
            im_acc += c * mpf_to_fraction(mpmath.sinpi(arg))
    err = total * Fraction(2) ** (5 - prec)
    return ComplexInterval(re_acc - err, re_acc + err, im_acc - err, im_acc + err)


def mp_value(n, coeffs, prec=512):
    """(re, im) of sum_i coeffs[i] zeta_n^i from mpmath at prec bits."""
    with mpmath.workprec(prec):
        re = im = mpmath.mpf(0)
        for i, c in enumerate(coeffs):
            if c == 0:
                continue
            c = mpmath.mpf(c.numerator) / c.denominator
            arg = mpmath.mpf(2 * i) / n
            re += c * mpmath.cospi(arg)
            im += c * mpmath.sinpi(arg)
        return mpf_to_fraction(re), mpf_to_fraction(im)


def mp_unit_circle(n, e, scale_bits, prec):
    """(2^scale_bits cos(2 pi e/n), the same for sin) from mpmath at prec
    bits, as Fractions."""
    with mpmath.workprec(prec):
        arg = mpmath.mpf(2 * e) / n
        unit = mpmath.mpf(2) ** scale_bits
        return (mpf_to_fraction(mpmath.cospi(arg) * unit),
                mpf_to_fraction(mpmath.sinpi(arg) * unit))


def mp_pi_scaled(w, prec=1000):
    """2^w pi from mpmath at prec bits, as a Fraction."""
    with mpmath.workprec(prec):
        return mpf_to_fraction(mpmath.pi * mpmath.mpf(2) ** w)
