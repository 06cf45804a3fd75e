"""Property and example tests for the exact arithmetic kernel."""

import math
from operator import mul
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from genusforge.errors import LimitError, ValidationError
from genusforge.exactkernel import (
    ComplexInterval,
    CyclotomicNumber,
    PhaseMod1,
    PhaseMod2,
    cyclo_approx,
    cyclotomic_polynomial,
    euler_phi,
    fraction_str,
    freeze,
    identity,
    integer_kernel,
    mat_mul,
    root_of_unity,
    row_lattice_basis,
    smith_normal_form,
)
from genusforge.exactkernel.cyclotomic import (
    _enclose,
    _pi_fixed,
    _unit_circle,
    reduce_int_counts,
)
from genusforge.lattice import build_lattice
import kernel_oracle
from cyclotomic_oracle import FractionCyclotomic
from cyclotomic_oracle import cyclotomic_polynomial as oracle_polynomial
from interval_oracle import (
    mp_pi_scaled,
    mp_unit_circle,
    mp_value,
    oracle_enclose,
)

small_int = st.integers(min_value=-30, max_value=30)


def int_matrix(max_dim=12, entries=small_int):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda r: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda c: st.lists(
                st.lists(entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


class TestPhases:
    def test_mod1_normalization(self):
        assert PhaseMod1(Fraction(5, 4)).value == Fraction(1, 4)
        assert PhaseMod1(Fraction(-1, 4)).value == Fraction(3, 4)
        assert PhaseMod1(Fraction(1, 4) + Fraction(3, 4)) == PhaseMod1(0)

    def test_mod2_normalization(self):
        assert PhaseMod2(Fraction(7, 3)).value == Fraction(1, 3)
        assert PhaseMod2(Fraction(-1, 2)).value == Fraction(3, 2)

    def test_type_is_part_of_the_value(self):
        # one class body, two moduli: equality, hash and repr keep the ring
        half1, half2 = PhaseMod1(Fraction(1, 2)), PhaseMod2(Fraction(1, 2))
        assert half1 != half2 and half1 != Fraction(1, 2)
        assert half1 == PhaseMod1("3/2") and hash(half1) == hash(PhaseMod1("3/2"))
        assert half2 != PhaseMod2("3/2")
        with pytest.raises(TypeError):  # a phase is a view, with no arithmetic
            half1 + half1
        assert repr(half2) == "PhaseMod2('1/2')" and str(PhaseMod1("-1/3")) == "2/3"

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    def test_fraction_str_spells_a_fraction(self, num, den):
        assert fraction_str(num, den) == str(Fraction(num, den))

    @given(st.fractions(max_denominator=40), st.integers(-3, 3))
    def test_mod1_value_is_the_residue(self, a, k):
        x = PhaseMod1(a)
        assert 0 <= x.value < 1 and (a - x.value).denominator == 1
        assert x == PhaseMod1(a + k) and hash(x) == hash(PhaseMod1(a + k))


def one_sided(a):
    """(diagonal, U, V) from the two one-sided calls, after checking that
    both give the diagonal of the call that records neither transform."""
    diagonal = smith_normal_form(a).diagonal
    with_u, with_v = smith_normal_form(a, "u"), smith_normal_form(a, "v")
    assert with_u.diagonal == with_v.diagonal == diagonal
    assert with_u.v is None and with_v.u is None
    return diagonal, with_u.u, with_v.v


def rank_deficient_matrix(max_dim=8, entries=small_int):
    """Rectangular matrices with appended sums of rows, and zero matrices."""
    zero = st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)).map(
        lambda rc: freeze([[0] * rc[1] for _ in range(rc[0])]))
    sums = st.tuples(int_matrix(max_dim, entries).map(freeze), st.integers(0, 3)).map(
        lambda ar: ar[0] + tuple(tuple(x + y for x, y in zip(ar[0][k % len(ar[0])], ar[0][-1]))
                                 for k in range(ar[1])))
    return st.one_of(int_matrix(max_dim, entries).map(freeze), sums, zero)


class TestSmithNormalForm:
    @given(int_matrix())
    @settings(max_examples=120, deadline=None)
    def test_reconstruction_and_chain(self, rows):
        a = freeze(rows)
        diagonal, u, v = one_sided(a)
        d = tuple(tuple(diagonal[i] if i == j else 0 for j in range(len(a[0])))
                  for i in range(len(a)))
        assert mat_mul(mat_mul(u, a), v) == d
        kernel_oracle.int_inv_unimodular(u)  # raises unless unimodular
        kernel_oracle.int_inv_unimodular(v)
        nz = [x for x in diagonal if x != 0]
        assert all(x > 0 for x in nz)
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        assert all(x == 0 for x in diagonal[len(nz):])

    @given(rank_deficient_matrix())
    @example(((0, 0, 0),))
    @example(((0,), (0,), (0,)))
    @example(((2, 4), (1, 2), (3, 6)))
    @settings(max_examples=200, deadline=None)
    def test_each_transform_matches_the_two_sided_oracle(self, a):
        want = kernel_oracle.smith_normal_form(a)
        diagonal, u, v = one_sided(a)
        assert diagonal == want.diagonal
        assert u == want.u
        assert v == want.v

    @given(rank_deficient_matrix())
    @settings(max_examples=120, deadline=None)
    def test_both_transforms_from_one_elimination(self, a):
        diagonal, u, v = one_sided(a)
        both = smith_normal_form(a, "uv")
        d = tuple(tuple(diagonal[i] if i == j else 0 for j in range(len(a[0])))
                  for i in range(len(a)))
        assert both.diagonal == diagonal
        assert mat_mul(mat_mul(both.u, a), both.v) == d
        kernel_oracle.int_inv_unimodular(both.u)  # raises unless unimodular
        kernel_oracle.int_inv_unimodular(both.v)
        assert (both.u, both.v) == (u, v)

    @given(st.one_of(rank_deficient_matrix(),
                     rank_deficient_matrix(6, st.integers(-2 ** 70, 2 ** 70)),
                     rank_deficient_matrix(6, st.sampled_from((0, 0, 1, -1, 2, -3, 6, -12))),
                     st.integers(1, 6).flatmap(lambda n: st.lists(
                         st.lists(small_int, min_size=n, max_size=n),
                         min_size=n, max_size=n)).map(freeze)))
    @example(((0, 0, 0),))
    @example(((-2 ** 65, 3), (2 ** 66 + 1, -2 ** 64)))
    @example(((4, 6, -10), (6, -8, 2), (-10, 2, 0)))
    @settings(max_examples=300, deadline=None)
    def test_one_pass_matches_the_closure_elimination(self, a):
        for transform in (None, "u", "v", "uv"):
            want = kernel_oracle.one_sided_smith_normal_form(a, transform)
            got = smith_normal_form(a, transform)
            assert (got.diagonal, got.u, got.v) == (want.diagonal, want.u, want.v)

    def test_rejects_unknown_transform(self):
        for transform in ("vu", "U", 1, True):
            with pytest.raises(ValidationError):
                smith_normal_form(((1, 0), (0, 2)), transform)

    def test_known_diagonal(self):
        res = smith_normal_form(((2, 4, 4), (-6, 6, 12), (10, 4, 16)))
        assert res.diagonal == (2, 2, 156)

    def test_zero_matrix(self):
        res = smith_normal_form(((0, 0), (0, 0)))
        assert res.diagonal == (0, 0)
        assert res.rank == 0

    def test_rejects_non_integer(self):
        with pytest.raises(ValidationError):
            smith_normal_form(((Fraction(1, 2),),))


class TestKernelAndInverse:
    @given(int_matrix(8))
    @settings(max_examples=80, deadline=None)
    def test_kernel_annihilates(self, rows):
        a = freeze(rows)
        basis = integer_kernel(a)
        ncols = len(a[0])
        assert len(basis) == ncols - smith_normal_form(a).rank
        for v in basis:
            assert all(sum(map(mul, row, v)) == 0 for row in a)

    def test_unimodular_inverse(self):
        # U A V = I for unimodular A, so V U is its inverse.
        u = ((1, 2), (1, 3))
        _, left, right = one_sided(u)
        assert mat_mul(mat_mul(right, left), u) == freeze(identity(2))


# The determinant and signature of a Gram matrix come from the elimination
# that `EvenLattice` runs, so its construction refuses the same entries.
@pytest.mark.parametrize("call", [
    lambda: smith_normal_form(((True, False), (False, True))),
    lambda: smith_normal_form(((1, 0), (0, False))),
    lambda: build_lattice(((True,),)),
    lambda: build_lattice(((2, 1), (1, Fraction(1, 2)))),
    lambda: integer_kernel(((True, 1),)),
    lambda: row_lattice_basis(((1, True),)),
    lambda: smith_normal_form(((True,),), "v"),
    lambda: build_lattice(((2, False), (False, 2))),
    lambda: build_lattice(((2, 1), (1, 2.0))),
    lambda: build_lattice((("1/2",),)),
])
def test_kernel_rejects_entries_that_are_not_numbers(call):
    with pytest.raises(ValidationError):
        call()


def signed_shear_product(max_dim=6):
    """Products of random elementary shears and signed permutations."""
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_dim))
        m = freeze(identity(n))
        for _ in range(draw(st.integers(min_value=0, max_value=8))):
            if draw(st.booleans()):
                perm = draw(st.permutations(range(n)))
                signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=n, max_size=n))
                step = [[signs[i] * int(perm[i] == j) for j in range(n)] for i in range(n)]
            else:
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
                step = identity(n)
                if i != j:
                    step[i][j] = draw(st.integers(min_value=-5, max_value=5))
            m = mat_mul(step, m)
        return m
    return build()


class TestFractionFreeAgainstOracle:
    """The integer kernel against the Fraction routines it replaced."""

    @given(int_matrix(8).map(freeze), st.integers(min_value=0, max_value=3))
    @settings(max_examples=150, deadline=None)
    def test_row_lattice_basis(self, a, repeats):
        # Appending sums of rows makes the matrix rank-deficient.
        a = a + tuple(tuple(x + y for x, y in zip(a[k % len(a)], a[-1]))
                      for k in range(repeats))
        assert row_lattice_basis(a) == kernel_oracle.row_lattice_basis(a)

    @given(signed_shear_product())
    @settings(max_examples=150, deadline=None)
    def test_unimodular_inverse(self, m):
        # The one-sided transforms of a unimodular matrix give its inverse
        # V U, equal to the Gauss-Jordan inverse.
        diagonal, u, v = one_sided(m)
        assert diagonal == (1,) * len(m)
        inv = mat_mul(v, u)
        assert inv == kernel_oracle.int_inv_unimodular(m)
        assert mat_mul(inv, m) == freeze(identity(len(m)))


class TestCyclotomic:
    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
        assert euler_phi(1) == 1 and euler_phi(8) == 4 and euler_phi(105) == 48

    def test_sqrt2_in_order8(self):
        z8 = root_of_unity(Fraction(1, 8))
        s = z8 - z8 ** 3
        assert (s * s).is_rational() == 2
        assert s == z8 + z8.conjugate()

    def test_roots_of_unity_relations(self):
        assert root_of_unity(Fraction(1, 2)) == -1
        assert root_of_unity(Fraction(1, 4)) ** 2 == -1
        z3 = root_of_unity(Fraction(1, 3))
        assert 1 + z3 + z3 ** 2 == 0

    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=200),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_exponent_addition(self, n, a, b):
        za = root_of_unity(Fraction(a % n, n))
        zb = root_of_unity(Fraction(b % n, n))
        zab = root_of_unity(Fraction((a + b) % n, n))
        assert za * zb == zab

    @given(st.integers(min_value=1, max_value=36), st.data())
    @settings(max_examples=60, deadline=None)
    def test_field_axioms(self, n, data):
        coeff = st.fractions(max_denominator=6).map(
            lambda f: Fraction(f).limit_denominator(6))
        phi = euler_phi(n)
        mk = lambda: CyclotomicNumber(
            n, data.draw(st.lists(coeff, min_size=phi, max_size=phi)))
        x, y, z = mk(), mk(), mk()
        assert (x + y) * z == x * z + y * z
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x + (-x) == 0
        if not x.is_zero():
            assert x * x.inverse() == 1
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()

    def test_norm_via_conjugate_is_nonnegative(self):
        z5 = root_of_unity(Fraction(1, 5))
        x = 2 * z5 - 3 * z5 ** 2 + z5 ** 4
        n = x * x.conjugate()
        iv = cyclo_approx(n, bits=64)
        assert iv.re_lo >= 0 or n.is_zero()

    def test_order_cap(self):
        with pytest.raises(LimitError):
            root_of_unity(Fraction(1, 10081))
        z = root_of_unity(Fraction(1, 101))
        w = root_of_unity(Fraction(1, 103))
        with pytest.raises(LimitError):
            _ = z * w  # lcm 10403 over the cap of 10080

    def test_sum_of_phases_matches_loop(self):
        phases = [Fraction(k, 12) for k in range(12)] + [Fraction(1, 3)]
        acc = CyclotomicNumber.zero()
        for t in phases:
            acc = acc + root_of_unity(t)
        terms = {}
        for t in phases:
            e = int(t * 12)
            terms[e] = terms.get(e, 0) + 1
        assert CyclotomicNumber.from_exponents(12, terms) == acc


# Coefficients for the oracle comparison: small fractions, and integers
# past 2^63, which take the Python-integer path of the reduction.
ORACLE_COEFFS = st.one_of(
    st.fractions(min_value=-20, max_value=20, max_denominator=6),
    st.integers(min_value=-2 ** 70, max_value=2 ** 70))


class TestFractionOracle:
    """`CyclotomicNumber` against the `Fraction`-coefficient arithmetic with
    a polynomial xgcd inverse that it replaced."""

    def test_polynomials(self):
        for n in list(range(1, 301)) + [1155, 2310]:
            assert cyclotomic_polynomial(n) == oracle_polynomial(n), n

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=6),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_operations_match(self, n, k, data):
        phi = euler_phi(n)
        a, b = (data.draw(st.lists(ORACLE_COEFFS, min_size=phi, max_size=phi))
                for _ in range(2))
        x, y = CyclotomicNumber(n, a), CyclotomicNumber(n, b)
        ox, oy = FractionCyclotomic(n, a), FractionCyclotomic(n, b)
        assert x.coeffs == ox.coeffs
        assert (x + y).coeffs == (ox + oy).coeffs
        assert (x - y).coeffs == (ox - oy).coeffs
        assert (x * y).coeffs == (ox * oy).coeffs
        assert x.conjugate().coeffs == ox.conjugate().coeffs
        assert x.embed(k * n).coeffs == ox.embed(k * n).coeffs
        if not x.is_zero():
            # an inverse is unique, so the oracle's product of x with it is a
            # full check; the oracle's own xgcd is compared where it is fast
            inv = x.inverse()
            one = FractionCyclotomic(n, [1])
            assert (ox * FractionCyclotomic(n, inv.coeffs)).coeffs == one.coeffs
            if phi <= 20:
                assert inv.coeffs == ox.inverse().coeffs

    def test_product_of_zero_and_a_coefficient_past_int64(self):
        zero, big = CyclotomicNumber(1, [0]), CyclotomicNumber(1, [2 ** 63])
        assert (zero * big).is_zero() and (big * zero).is_zero()

    @given(st.sampled_from((240, 420)), st.data())
    @settings(max_examples=4, deadline=None)
    def test_inverse_at_large_orders(self, n, data):
        coeff = st.fractions(min_value=-6, max_value=6, max_denominator=6)
        x = CyclotomicNumber(n, data.draw(st.lists(coeff, min_size=euler_phi(n),
                                                   max_size=euler_phi(n))))
        if not x.is_zero():
            assert x * x.inverse() == 1


def contains(box, re, im):
    return box.re_lo <= re <= box.re_hi and box.im_lo <= im <= box.im_hi


class TestInterval:
    def test_width_contract(self):
        z = root_of_unity(Fraction(1, 7)) * 3 + Fraction(1, 3)
        for bits in (32, 64, 128):
            iv = cyclo_approx(z, bits=bits)
            assert iv.width <= Fraction(2) ** (1 - bits)

    def test_double_precision_agreement(self):
        z8 = root_of_unity(Fraction(1, 8))
        v = 5 * z8 - 2 * z8 ** 3 + 7
        iv = cyclo_approx(v, bits=96)
        re, im = float((iv.re_lo + iv.re_hi) / 2), float((iv.im_lo + iv.im_hi) / 2)
        want = 5 * complex(math.cos(math.pi / 4), math.sin(math.pi / 4)) \
            - 2 * complex(math.cos(3 * math.pi / 4), math.sin(3 * math.pi / 4)) + 7
        assert abs(complex(re, im) - want) < 1e-12

    def test_sign_certificates(self):
        plus = cyclo_approx(CyclotomicNumber.from_rational(Fraction(1, 1000)))
        minus = cyclo_approx(CyclotomicNumber.from_rational(Fraction(-1, 1000)))
        assert plus.strictly_positive_real()
        assert minus.strictly_negative_real()
        zero = cyclo_approx(CyclotomicNumber.zero())
        assert not zero.strictly_positive_real()
        assert not zero.strictly_negative_real()


# Every order up to 720, and two large ones: 5040 and the default order
# cap, 10080.
ORDERS = st.one_of(st.integers(min_value=1, max_value=720),
                   st.sampled_from((5040, 10080)))
BITS = st.sampled_from((32, 64, 128, 256))
COEFFS = st.one_of(
    st.integers(min_value=-10 ** 6, max_value=10 ** 6),
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10 ** 6))


@st.composite
def sparse_vectors(draw):
    """(n, a coefficient list of length n with a few nonzero entries)."""
    n = draw(ORDERS)
    terms = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1),
                                 COEFFS, max_size=12))
    vec = [0] * n
    for e, c in terms.items():
        vec[e] = c
    return n, vec


class TestIntegerEnclosure:
    """The integer tables behind `cyclo_approx` against the mpmath
    enclosure they replaced and 512-bit mpmath values."""

    @staticmethod
    def check_box(box, n, coeffs, bits):
        re, im = mp_value(n, coeffs)
        assert contains(box, re, im)
        assert box.width <= Fraction(2) ** (1 - bits)
        oracle = oracle_enclose(n, coeffs, bits)
        assert contains(oracle, re, im)

    @settings(max_examples=60, deadline=None)
    @given(sparse_vectors(), BITS)
    def test_cyclo_approx_encloses_the_value(self, vec, bits):
        n, coeffs = vec
        z = CyclotomicNumber.from_exponents(n, dict(enumerate(coeffs)))
        self.check_box(cyclo_approx(z, bits), z.order, z.coeffs, bits)

    @settings(max_examples=60, deadline=None)
    @given(sparse_vectors(), BITS)
    @example((10080, [0] * 1261 + [3] + [0] * 6299 + [Fraction(-7, 9)] + [0] * 2517 + [5]), 256)
    def test_unreduced_vectors(self, vec, bits):
        # gauss_phase encloses sum_e counts[e] zeta_n^e without reducing
        n, coeffs = vec
        self.check_box(_enclose(n, coeffs, bits), n, coeffs, bits)

    @settings(max_examples=40, deadline=None)
    @given(ORDERS, st.sampled_from((32, 64, 160, 288)),
           st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=24))
    @example(10080, 160, [1, 1259, 1261, 5039, 7561, 10079])
    @example(5040, 288, [629, 631, 2521, 3779])
    def test_table_entries_within_one_unit(self, n, prec, sample):
        cos, sin = _unit_circle(n, prec)
        assert len(cos) == len(sin) == n
        # every octant boundary and a sample of other angles
        picks = {n * k // 8 for k in range(8)} | {e % n for e in sample}
        for e in sorted(picks):
            c, s = mp_unit_circle(n, e, prec, prec + 60)
            assert abs(cos[e] - c) <= 1, (n, prec, e)
            assert abs(sin[e] - s) <= 1, (n, prec, e)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=900))
    def test_pi_within_its_counted_error(self, w):
        value, err = _pi_fixed(w)
        assert abs(value - mp_pi_scaled(w)) <= err
        # the count stays linear in w, which the tables' guard bits assume
        assert err < 4 * w + 64


class TestCountReduction:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=120), st.data())
    def test_matches_term_by_term(self, n, data):
        big = st.integers(min_value=-2 ** 70, max_value=2 ** 70)
        small = st.integers(min_value=-50, max_value=50)
        counts = data.draw(st.lists(st.one_of(small, big) if data.draw(st.booleans())
                                    else small, min_size=1, max_size=3 * n))
        want = CyclotomicNumber.zero()
        for e, c in enumerate(counts):
            want = want + CyclotomicNumber.from_exponents(n, {e: c})
        got = reduce_int_counts(n, counts).tolist()
        assert all(isinstance(x, int) for x in got)
        assert CyclotomicNumber(n, got) == want

    def test_overflow_switches_to_python_integers(self):
        counts = np.array([2 ** 61, 0, 2 ** 61, 2 ** 61], dtype=np.int64)
        out = reduce_int_counts(12, np.stack([counts, -counts]))
        assert out.dtype == object
        z = CyclotomicNumber.from_exponents(12, {0: 2 ** 61, 2: 2 ** 61, 3: 2 ** 61})
        want = [int(c) for c in z.coeffs]
        assert out.tolist() == [want, [-x for x in want]]
        assert reduce_int_counts(12, counts).tolist() == want

    def test_list_entries_past_int64_stay_exact(self):
        out = reduce_int_counts(4, [1, 2 ** 63 + 5, 0, 0]).tolist()
        assert out == [1, 2 ** 63 + 5]
        assert all(type(x) is int for x in out)

    @pytest.mark.parametrize("counts", [np.array([1.0, 2.0, 0.0, 0.0]),
                                        np.array([1j, 0, 0, 0]), [1, 0.5, 0, 0]])
    def test_rejects_counts_that_are_not_integers(self, counts):
        with pytest.raises(ValidationError):
            reduce_int_counts(4, counts)
