"""Tests for finite quadratic spaces.

The naive oracles here recompute everything element by element:
isotropic subgroups by filtering all subsets closed under addition,
Gauss sums by summing floats, and decompositions by re-summing parts.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusforge.errors import (
    ConsistencyError,
    DegenerateFormError,
    LimitError,
    NonIsotropicSubgroupError,
    NotPrimaryError,
    ValidationError,
)
from genusforge.quadspace import (
    FiniteAbelianGroup,
    build_space,
    direct_sum,
    gauss_sum,
    is_isometric,
    isotropic_subgroups,
    jordan_blocks_odd,
    jordan_decomposition,
    orthogonal_complement,
    primary_decomposition,
    quotient_space,
    signature_mod8,
    space_from_json,
    space_to_json,
    subgroup_from_generators,
    trivial_space,
    verify_isometry,
)
from genusforge.quadspace.gauss import _phase_counts
from space_oracle import (
    basis_change,
    image,
    oracle_b,
    oracle_phase_counts,
    oracle_q,
)


def hyperbolic_plane():
    return build_space([2, 2], ["0", "0"], [["0", "1/2"], ["1/2", "0"]])


def disc_A1():
    # Discriminant form of the A1 root lattice: Z/2 with q = 1/2.
    return build_space([2], ["1/2"])


def disc_E7_like():
    # Z/2 with q = 3/2, signature 7 mod 8.
    return build_space([2], ["3/2"])


SIGNATURE_CASES = [
    (trivial_space, 0),
    (disc_A1, 1),
    (lambda: build_space([3], ["2/3"]), 2),  # A2 discriminant form
    (lambda: build_space([4], ["3/4"]), 3),  # A3 discriminant form
    (lambda: build_space([8], ["1/8"]), 1),  # D8-related cyclic form
    (hyperbolic_plane, 0),
    (disc_E7_like, 7),
]


class TestGroup:
    def test_chain_enforced(self):
        with pytest.raises(ValidationError):
            FiniteAbelianGroup((3, 2))
        with pytest.raises(ValidationError):
            FiniteAbelianGroup((1, 2))
        with pytest.raises(ValidationError):
            FiniteAbelianGroup((2, 3))

    def test_arithmetic(self):
        g = FiniteAbelianGroup((2, 4))
        assert g.order == 8
        assert g.add((1, 3), (1, 2)) == (0, 1)
        assert g.neg((1, 1)) == (1, 3)
        assert g.element_order((0, 2)) == 2
        assert g.element_order((1, 1)) == 4
        assert len(list(g.elements())) == 8


class TestBuild:
    def test_orthogonal_default_b(self):
        s = build_space([4], ["1/4"])
        assert s.eval_b((1,), (1,)).value == Fraction(1, 4)
        assert s.eval_q((2,)).value == Fraction(1)

    def test_polarization_mismatch_rejected(self):
        # b(g,g) must reduce q(g) mod 1; 1/2 does not match q = 1/4.
        with pytest.raises(ConsistencyError):
            build_space([4], ["1/4"], [["1/2"]])

    def test_inconsistent_order_rejected(self):
        # q(g)*d^2 must be even: 4 * (1/3) is not an integer at all.
        with pytest.raises(ConsistencyError):
            build_space([2], ["1/3"])

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            build_space([2], ["0"])
        # q(g) = 3/2 on Z/4 puts 2g in the radical.
        with pytest.raises(DegenerateFormError):
            build_space([4], ["3/2"])

    def test_non_chain_orders_canonicalized(self):
        s = build_space([3, 2], ["2/3", "1/2"])
        assert s.orders == (6,)
        # The new generator must combine both cyclic parts.
        vals = sorted(p.value for p in s.q_values().values())
        t = direct_sum(build_space([2], ["1/2"]), build_space([3], ["2/3"]))
        assert vals == sorted(p.value for p in t.q_values().values())

    def test_unit_orders_dropped(self):
        s = build_space([1, 2], ["0", "1/2"])
        assert s.orders == (2,)

    def test_eval_bilinear_expansion(self):
        s = hyperbolic_plane()
        assert s.eval_q((1, 1)).value == Fraction(1)
        assert s.eval_b((1, 0), (0, 1)).value == Fraction(1, 2)

    def test_json_round_trip(self):
        for mk in (hyperbolic_plane, disc_A1, lambda: build_space([2, 4], ["1/2", "3/4"])):
            s = mk()
            doc = space_to_json(s)
            t = space_from_json(doc)
            assert t.orders == s.orders
            assert t.q_gen == s.q_gen
            assert t.b_matrix == s.b_matrix

    def test_direct_sum_orders(self):
        s = direct_sum(disc_A1(), build_space([4], ["1/4"]))
        assert s.orders == (2, 4)
        assert s.order == 8


class TestGauss:
    @pytest.mark.parametrize("mk,expected", SIGNATURE_CASES)
    def test_signature_examples(self, mk, expected):
        assert signature_mod8(mk()) == expected

    def test_gauss_magnitude(self):
        # |G|^2 = |A| for every nondegenerate space.
        for mk, _ in SIGNATURE_CASES:
            s = mk()
            g = gauss_sum(s)
            norm = g * g.conjugate()
            assert norm == s.order

    def test_signature_additive(self):
        s = direct_sum(disc_A1(), build_space([3], ["2/3"]))
        assert signature_mod8(s) == 3

    def test_float_oracle(self):
        # Sum the phases in floating point and compare the argument.
        import cmath

        for mk, expected in SIGNATURE_CASES:
            s = mk()
            tot = sum(cmath.exp(1j * cmath.pi * float(s.eval_q(x).value))
                      for x in s.elements())
            want = cmath.exp(1j * cmath.pi * expected / 4) * (s.order ** 0.5)
            assert abs(tot - want) < 1e-9


def naive_isotropic(s):
    """All isotropic subgroups by closure over element subsets."""
    elems = list(s.elements())
    zero = tuple([0] * s.rank)
    iso = [x for x in elems if s.eval_q(x).value == 0]
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        base = frontier.pop()
        for x in iso:
            if x in base:
                continue
            if any(s.eval_b(x, y).value != 0 for y in base):
                continue
            grown = set(base)
            queue = [x]
            while queue:
                v = queue.pop()
                if v in grown:
                    continue
                grown.add(v)
                queue.extend(s.group.add(v, w) for w in list(grown))
            fs = frozenset(grown)
            if fs not in found:
                found.add(fs)
                frontier.append(fs)
    return sorted(sorted(f) for f in found)


class TestIsotropic:
    def test_cyclic_eight(self):
        s = build_space([8], ["1/8"])
        subs = isotropic_subgroups(s)
        assert [sorted(c.elements) for c in subs] == [[(0,)], [(0,), (4,)]]

    def test_hyperbolic_plane(self):
        subs = isotropic_subgroups(hyperbolic_plane())
        assert [c.order for c in subs] == [1, 2, 2]

    def test_f2_six_count(self):
        h = hyperbolic_plane()
        s = direct_sum(direct_sum(h, h), h)
        # Totally isotropic subspaces of a rank-6 hyperbolic space over F2,
        # counted by Gaussian binomials: 1 + 35 + 105 + 30.
        assert len(isotropic_subgroups(s)) == 171

    def test_cap_bounds_the_subgroups_found(self):
        # disc(A1^7): |A| = 128 passes the cap, its 171 subgroups do not
        s = build_space([2] * 7, ["1/2"] * 7)
        with pytest.raises(LimitError):
            isotropic_subgroups(s, cap=150)
        assert len(isotropic_subgroups(s)) == 171

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from([
        ([4], ["1/4"]),
        ([8], ["1/8"]),
        ([9], ["2/9"]),
        ([2, 2], ["1/2", "1/2"]),
        ([3], ["2/3"]),
        ([2, 4], ["1/2", "1/4"]),
        ([2, 8], ["1/2", "7/8"]),
        ([4, 4], ["1/4", "3/4"]),
    ]))
    def test_matches_naive_oracle(self, case):
        orders, q = case
        s = build_space(orders, q)
        got = [sorted(c.elements) for c in isotropic_subgroups(s)]
        assert sorted(got) == naive_isotropic(s)


class TestQuotient:
    def test_rejects_non_isotropic(self):
        s = build_space([4], ["1/4"])
        c = subgroup_from_generators(s, [(2,)])
        with pytest.raises(NonIsotropicSubgroupError):
            quotient_space(s, c)

    def test_order_drops_by_square(self):
        s = build_space([8], ["1/8"])
        c = subgroup_from_generators(s, [(4,)])
        t = quotient_space(s, c)
        assert t.order == s.order // c.order ** 2

    def test_signature_preserved(self):
        s = build_space([8], ["1/8"])
        c = subgroup_from_generators(s, [(4,)])
        assert signature_mod8(quotient_space(s, c)) == signature_mod8(s)

        h = hyperbolic_plane()
        for c in isotropic_subgroups(h):
            if c.order == 1:
                continue
            assert signature_mod8(quotient_space(h, c)) == 0

    def test_complement_of_trivial(self):
        s = build_space([8], ["1/8"])
        c = subgroup_from_generators(s, [])
        assert orthogonal_complement(s, c).order == s.order

    def test_hyperbolic_quotient_trivial(self):
        h = hyperbolic_plane()
        for c in isotropic_subgroups(h):
            if c.order == 2:
                q = quotient_space(h, c)
                assert q.order == 1


class TestDecompose:
    def test_primary_parts(self):
        s = build_space([6], ["7/6"])
        parts = primary_decomposition(s)
        assert sorted(parts) == [2, 3]
        assert parts[2].orders == (2,)
        assert parts[3].orders == (3,)
        assert parts[2].eval_q((1,)).value == Fraction(1, 2)
        assert parts[3].eval_q((1,)).value == Fraction(2, 3)

    def test_primary_sum_isometric(self):
        for orders, q in [([12], ["13/12"]), ([24], ["1/24"]), ([6, 6], ["1/6", "7/6"])]:
            s = build_space(orders, q)
            parts = primary_decomposition(s)
            back = None
            for p in sorted(parts):
                back = parts[p] if back is None else direct_sum(back, parts[p])
            w = is_isometric(s, back)
            assert w is not None
            assert verify_isometry(s, back, w)

    @pytest.mark.parametrize("orders,q,expected", [
        ([3], ["2/3"], [(3, 1, 1, 1)]),
        ([3], ["4/3"], [(3, 1, 1, -1)]),
        ([9], ["2/9"], [(3, 2, 1, 1)]),
        ([3, 3], ["2/3", "2/3"], [(3, 1, 2, 1)]),
        ([3, 9], ["2/3", "2/9"], [(3, 1, 1, 1), (3, 2, 1, 1)]),
        ([5], ["2/5"], [(5, 1, 1, 1)]),
        ([5], ["4/5"], [(5, 1, 1, -1)]),
    ])
    def test_jordan_blocks(self, orders, q, expected):
        s = build_space(orders, q)
        got = [(b.p, b.k, b.rank, b.theta) for b in jordan_blocks_odd(s, 3 if orders[0] % 3 == 0 else 5)]
        assert got == expected

    def test_jordan_requires_primary(self):
        with pytest.raises(NotPrimaryError):
            jordan_blocks_odd(build_space([6], ["7/6"]), 3)

    def test_jordan_rejects_two(self):
        with pytest.raises(ValidationError):
            jordan_blocks_odd(build_space([2], ["1/2"]), 2)

    def test_full_decomposition_shape(self):
        s = build_space([12], ["13/12"])
        jd = jordan_decomposition(s)
        assert sorted(jd) == [2, 3]
        assert [(b.p, b.k, b.rank, b.theta) for b in jd[3]] == [(3, 1, 1, -1)]
        # The 2-part comes back as a space, not as blocks.
        assert jd[2].order == 4

    def test_theta_detects_nonisometry(self):
        a = build_space([3], ["2/3"])
        b = build_space([3], ["4/3"])
        ja = jordan_blocks_odd(a, 3)
        jb = jordan_blocks_odd(b, 3)
        assert ja != jb
        assert is_isometric(a, b) is None


class TestIsometry:
    def test_self_witness(self):
        s = hyperbolic_plane()
        w = is_isometric(s, s)
        assert w is not None
        assert verify_isometry(s, s, w)

    def test_distinguishes_forms(self):
        d = build_space([2, 2], ["1/2", "1/2"])
        assert is_isometric(hyperbolic_plane(), d) is None

    def test_unordered_sum(self):
        a = direct_sum(build_space([3], ["2/3"]), build_space([3], ["2/3"]))
        b = direct_sum(build_space([3], ["4/3"]), build_space([3], ["4/3"]))
        w = is_isometric(a, b)
        assert w is not None and verify_isometry(a, b, w)

    def test_rejects_wrong_witness(self):
        s = build_space([3], ["2/3"])
        t = build_space([3], ["4/3"])
        assert not verify_isometry(s, t, ((1,),))

    def test_different_groups(self):
        assert is_isometric(build_space([3], ["2/3"]), build_space([9], ["2/9"])) is None


@st.composite
def random_space(draw):
    """A random valid orthogonal space with small cyclic parts."""
    n = draw(st.integers(1, 2))
    parts = []
    for _ in range(n):
        d = draw(st.sampled_from([2, 3, 4, 5, 8, 9]))
        a = draw(st.integers(1, 2 * d - 1).filter(
            lambda a, d=d: _valid_cyclic(a, d)))
        parts.append((d, Fraction(a, d)))
    return parts


def _valid_cyclic(a, d):
    q = Fraction(a, d)
    if (q * d * d).denominator != 1 or (q * d * d).numerator % 2:
        return False
    # Nondegenerate iff b(g, kg) = k*q hits all of (1/d)Z/Z, i.e. gcd(a', d) = 1
    # where q mod 1 has denominator exactly d.
    r = q - int(q)
    return r != 0 and r.denominator == d


def _sum_of(parts):
    s = None
    for d, q in parts:
        nxt = build_space([d], [str(q)])
        s = nxt if s is None else direct_sum(s, nxt)
    return s


def _assert_matches_oracle(s):
    elems = list(s.elements())
    for x in elems:
        assert s.eval_q(x).value == oracle_q(s, x), (s, x)
        for y in elems:
            assert s.eval_b(x, y).value == oracle_b(s, x, y), (s, x, y)
    m, counts = _phase_counts(s)
    assert (m, counts.tolist()) == oracle_phase_counts(s), s


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(random_space())
    def test_gauss_norm_and_quotients(self, parts):
        s = _sum_of(parts)
        _assert_matches_oracle(s)
        g = gauss_sum(s)
        assert g * g.conjugate() == s.order
        sig = signature_mod8(s)
        for c in isotropic_subgroups(s, cap=128):
            if c.order == 1:
                continue
            t = quotient_space(s, c)
            assert t.order * c.order ** 2 == s.order
            assert signature_mod8(t) == sig
            _assert_matches_oracle(t)

    @settings(max_examples=25, deadline=None)
    @given(random_space(), st.randoms(use_true_random=False))
    def test_json_and_isometry_round_trip(self, parts, rng):
        s = _sum_of(parts)
        t = space_from_json(space_to_json(s))
        w = is_isometric(s, t)
        assert w is not None
        assert verify_isometry(s, t, w)
        # A basis change: values on the new generators agree with the
        # oracle on the old ones, and the spaces are isometric.
        u, gens = basis_change(s, rng)
        _assert_matches_oracle(u)
        for x in u.elements():
            assert u.eval_q(x).value == oracle_q(s, image(s, gens, x))
        assert signature_mod8(u) == signature_mod8(s)
        w = is_isometric(s, u)
        assert w is not None
        assert verify_isometry(s, u, w)
