"""Tests for finite quadratic spaces.

The naive oracles here recompute everything element by element:
isotropic subgroups by filtering all subsets closed under addition,
Gauss sums by summing floats, and decompositions by re-summing parts.
"""

import gc
import logging
import math
import random
import time
from fractions import Fraction

import numpy as np
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
    closure,
    direct_sum,
    gauss_sum,
    is_isometric,
    isotropic_subgroups,
    jordan_blocks_odd,
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
from genusforge.exactkernel.intmatrix import _factorize
from genusforge.quadspace import space as space_module
from genusforge.quadspace.gauss import _phase_counts
from genusforge.quadspace.present import present_subquotient
import kernel_oracle
import space_oracle as oracle
from space_library import space_library
from space_oracle import (
    basis_change,
    image,
    oracle_b,
    oracle_phase_counts,
    oracle_q,
)

LIBRARY = space_library(32)


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
        assert len(list(g.elements())) == 8


class TestBuild:
    def test_orthogonal_default_b(self):
        s = build_space([4], ["1/4"])
        assert oracle_b(s, (1,), (1,)) == Fraction(1, 4)
        assert oracle_q(s, (2,)) == Fraction(1)

    def test_polarization_mismatch_rejected(self):
        # b(g,g) must reduce q(g) mod 1; 1/2 does not match q = 1/4.
        with pytest.raises(ConsistencyError):
            build_space([4], ["1/4"], [["1/2"]])

    def test_inconsistent_order_rejected(self):
        # q(g)*d^2 must be even: 4 * (1/3) is not an integer at all.
        with pytest.raises(ConsistencyError):
            build_space([2], ["1/3"])

    def test_orders_already_a_chain_are_kept_as_given(self):
        gram = ((2, 0, 0), (0, 2, 1), (0, 1, 4))
        orders = (2, 2, 4)
        got = space_module._invariant_factors(orders, gram)
        assert got[0] is orders and got[1] is gram
        # A 1 or an order out of chain order is re-presented.
        assert space_module._invariant_factors([1, 2], [[0, 0], [0, 3]]) == ([2], [[3]])
        assert tuple(space_module._invariant_factors([4, 2], [[1, 0], [0, 2]])[0]) == (2, 4)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateFormError):
            build_space([2], ["0"])
        # q(g) = 3/2 on Z/4 puts 2g in the radical.
        with pytest.raises(DegenerateFormError):
            build_space([4], ["3/2"])

    def test_orders_must_be_integers(self):
        import numpy as np
        assert build_space(np.array([2, 4]), ["1/2", "1/4"]) == build_space([2, 4], ["1/2", "1/4"])
        for orders in ([2.7], ["2"], [True], [2.0]):
            with pytest.raises(ValidationError, match="must be integers"):
                build_space(orders, ["1/2"])

    def test_gram_and_orders_arrays_are_kept_read_only(self):
        s = build_space([2, 4], ["1/2", "1/4"])
        assert s.gram_array is s.gram_array and s.orders_array is s.orders_array
        assert s.gram_array.tolist() == [list(row) for row in s.gram]
        assert s.orders_array.tolist() == list(s.orders)
        for a in (s.gram_array, s.orders_array):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_element_tables_are_read_only(self):
        from genusforge.lattice import builtin_lattice, discriminant_form
        s = discriminant_form(builtin_lattice("D4"))
        before = isotropic_subgroups(s)
        for a in (*s.table, s.table.coords.base, s.radix):
            with pytest.raises(ValueError):
                a[:] = 0
        assert len(before) == 1 and isotropic_subgroups(s) == before

    def test_non_chain_orders_canonicalized(self):
        s = build_space([3, 2], ["2/3", "1/2"])
        assert s.orders == (6,)
        # The new generator must combine both cyclic parts.
        vals = sorted(oracle_q(s, x) for x in s.elements())
        t = direct_sum(build_space([2], ["1/2"]), build_space([3], ["2/3"]))
        assert vals == sorted(oracle_q(t, x) for x in t.elements())

    def test_unit_orders_dropped(self):
        s = build_space([1, 2], ["0", "1/2"])
        assert s.orders == (2,)

    def test_eval_bilinear_expansion(self):
        s = hyperbolic_plane()
        assert oracle_q(s, (1, 1)) == Fraction(1)
        assert oracle_b(s, (1, 0), (0, 1)) == Fraction(1, 2)

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

    def test_direct_sum_equals_the_nondegeneracy_checked_route(self):
        # direct_sum skips the Smith-form test of space_from_gram, which a
        # sum of two nondegenerate spaces always passes.
        library = space_library(8)
        for s1 in library:
            for s2 in library:
                level = math.lcm(s1.level, s2.level)
                gram = [[x * (level // s1.level) for x in row] + [0] * s2.rank
                        for row in s1.gram]
                gram += [[0] * s1.rank + [x * (level // s2.level) for x in row]
                         for row in s2.gram]
                checked = space_module.space_from_gram(s1.orders + s2.orders, level, gram)
                assert direct_sum(s1, s2) == checked


class TestSharedGroupArrays:
    """Spaces on one group share its coordinates, element orders and radix;
    only q is computed per space."""

    def test_tables_match_the_per_space_oracle_on_the_library(self):
        for s in LIBRARY:
            oracle.assert_tables_match(s)

    def test_equal_orders_share_one_coords_object(self):
        by_orders = {}
        for s in LIBRARY:
            first = by_orders.setdefault(s.orders, s)
            assert s.table.coords is first.table.coords
            assert s.table.order is first.table.order and s.radix is first.radix
        assert len(by_orders) < len(LIBRARY)

    def test_an_entry_lives_only_while_a_space_holds_it(self):
        key = (7, 49)
        s, t = build_space(key, ["2/7", "2/49"]), build_space(key, ["4/7", "6/49"])
        assert s != t and s.table.coords is t.table.coords
        assert key in space_module._GROUP_ARRAYS
        del s, t
        gc.collect()
        assert key not in space_module._GROUP_ARRAYS


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

    def test_jordan_route_matches_the_gauss_sum_oracle(self):
        # Every space of the library, and one basis change of each, against
        # the Gauss-sum phase the Jordan splitting replaced.
        rng = random.Random(8)
        for s in space_library(64):
            want = oracle.signature_mod8(s)
            assert signature_mod8(s) == want, s
            assert signature_mod8(basis_change(s, rng)[0]) == want, s

    def test_float_oracle(self):
        # Sum the phases in floating point and compare the argument.
        import cmath

        for mk, expected in SIGNATURE_CASES:
            s = mk()
            tot = sum(cmath.exp(1j * cmath.pi * float(oracle_q(s, x)))
                      for x in s.elements())
            want = cmath.exp(1j * cmath.pi * expected / 4) * (s.order ** 0.5)
            assert abs(tot - want) < 1e-9


def naive_isotropic(s):
    """All isotropic subgroups by closure over element subsets."""
    elems = list(s.elements())
    zero = tuple([0] * s.rank)
    iso = [x for x in elems if oracle_q(s, x) == 0]
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        base = frontier.pop()
        for x in iso:
            if x in base:
                continue
            if any(oracle_b(s, x, y) != 0 for y in base):
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


DISC_A3 = build_space([4], ["3/4"])


@pytest.mark.parametrize("call", [
    lambda: subgroup_from_generators(DISC_A3, [(2.7,)]),
    lambda: subgroup_from_generators(DISC_A3, [("2",)]),
    lambda: closure(DISC_A3, [(1.5,)]),
    lambda: verify_isometry(DISC_A3, DISC_A3, [(1.0,)]),
])
def test_group_coordinates_must_be_integers(call):
    with pytest.raises(ValidationError, match="must be integers"):
        call()


def test_numpy_integer_coordinates_are_integers():
    import numpy as np
    assert subgroup_from_generators(DISC_A3, [(np.int64(2),)]).order == 2
    assert verify_isometry(DISC_A3, DISC_A3, [(np.int32(1),)])


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
        assert oracle_q(parts[2], (1,)) == Fraction(1, 2)
        assert oracle_q(parts[3], (1,)) == Fraction(2, 3)

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

    def test_jordan_rejects_composites_and_non_primes(self):
        s = build_space([9], ["2/9"])
        for p in (-3, 0, 1, 9, 15, 65521 * 65519):
            with pytest.raises(ValidationError, match="not an odd prime"):
                jordan_blocks_odd(s, p)

    def test_factorize_against_trial_division(self):
        def naive(n):
            out, p = {}, 2
            while n > 1:
                while n % p == 0:
                    out[p] = out.get(p, 0) + 1
                    n //= p
                p += 1
            return out

        for n in range(1, 3000):
            assert _factorize(n) == naive(n), n
        # Cofactors below 2^32 with no factor up to 2^16 are prime.
        assert _factorize(65521 * 65519) == {65519: 1, 65521: 1}
        assert _factorize(2 ** 40 * 4_294_967_291) == {2: 40, 4_294_967_291: 1}
        with pytest.raises(LimitError):
            _factorize(65537 * 65537)

    def test_trial_division_is_bounded(self):
        # A prime just below 2^32 is certified by trial division up to 2^16
        # and keeps its answer; a prime near 10^12 is past the bound and
        # stops at once instead of dividing up to its square root.
        p = 4_294_967_291
        s = build_space([p], [f"2/{p}"])
        assert signature_mod8(s) == 2
        assert [(b.k, b.rank, b.theta) for b in jordan_blocks_odd(s, p)] == [(1, 1, 1)]
        p = 1_000_000_000_039
        s = build_space([p], [f"2/{p}"])
        start = time.perf_counter()
        with pytest.raises(LimitError):
            signature_mod8(s)
        assert time.perf_counter() - start < 0.05

    def test_full_decomposition_shape(self):
        s = build_space([12], ["13/12"])
        jd = {p: part if p == 2 else jordan_blocks_odd(part, p)
              for p, part in primary_decomposition(s).items()}
        assert sorted(jd) == [2, 3]
        assert [(b.p, b.k, b.rank, b.theta) for b in jd[3]] == [(3, 1, 1, -1)]
        # The 2-part comes back as a space, not as blocks.
        assert jd[2].order == 4

    def test_jordan_blocks_match_the_fraction_oracle(self):
        # Every odd primary part of the library, and one basis change of
        # each, against the Fraction route the integer numerators replaced.
        rng = random.Random(64)
        parts = [(p, part) for s in space_library(64)
                 for p, part in primary_decomposition(s).items() if p > 2]
        assert len({part for _, part in parts}) > 10
        for p, part in parts:
            for t in (part, basis_change(part, rng)[0]):
                assert jordan_blocks_odd(t, p) == oracle.jordan_blocks_odd(t, p), t

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

    def test_equal_spaces_get_the_identity_without_a_table(self):
        # Two equal encodings built apart: the witness is the identity that
        # the search finds first, and no element table is built.
        s, t = disc_a1_power(4), disc_a1_power(4)
        assert s is not t and s == t
        w = is_isometric(s, t)
        assert w == s.generators()
        assert "table" not in vars(s) and "table" not in vars(t)
        assert w == oracle.is_isometric(s, t)

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


def _assignments(s, t):
    """Every map e_i -> y_i into t that keeps the order and q of each
    generator of s and b on every pair of them, in the search's candidate
    order: the literal generator first, then ascending."""
    coords, q, order = t.table
    elements = list(zip(map(tuple, coords.tolist()), q.tolist(), order.tolist()))
    found = []

    def extend(images):
        i = len(images)
        if i == s.rank:
            found.append(tuple(images))
            return
        e = s.generators()[i]
        for y, qy, oy in sorted(elements, key=lambda row: (row[0] != e, row[0])):
            if oy == s.orders[i] and qy == s.gram[i][i] and all(
                    (oracle.pair(t, y, z) - s.gram[i][j]) % s.level == 0 for j, z in enumerate(images)):
                extend(images + [y])

    extend([])
    return found


class TestCompleteAssignments:
    """The search checks no span: a generator map that keeps orders, q and
    every pairing is an isometry, and the witness is the first such map."""

    def test_every_complete_assignment_is_an_isometry(self):
        rng = random.Random(16)
        for s in space_library(16):
            t, _ = basis_change(s, rng)
            assert s.level == t.level
            for a, b in ((s, s), (s, t)):
                maps = _assignments(a, b)
                assert maps, (a, b)
                assert all(verify_isometry(a, b, w) for w in maps), (a, b)
                assert is_isometric(a, b) == maps[0], (a, b)


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
    # The integer q table over the level is what the library computes on.
    elems = list(s.elements())
    assert s.table.coords.tolist() == [list(x) for x in elems], s
    for x, q in zip(elems, s.table.q.tolist()):
        assert Fraction(q, s.level) == oracle_q(s, x), (s, x)
    gens = s.generators()
    for x, row in zip(gens, s.gram):
        for y, g in zip(gens, row):
            assert Fraction(g, s.level) % 1 == oracle_b(s, x, y), (s, x, y)
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
        for x, q in zip(u.elements(), u.table.q.tolist()):
            assert Fraction(q, u.level) == oracle_q(s, image(s, gens, x))
        assert signature_mod8(u) == signature_mod8(s)
        w = is_isometric(s, u)
        assert w is not None
        assert verify_isometry(s, u, w)


def _listed(subs):
    return [(c.elements, c.generators) for c in subs]


def disc_a1_power(n):
    return build_space([2] * n, ["1/2"] * n)


class TestIndexSpansAgainstOracle:
    """The element-index spans against the Python-set search they replaced:
    the same elements, generator chains, list order and witnesses."""

    def test_isometry_witnesses_on_the_library(self):
        for a in LIBRARY:
            for b in LIBRARY:
                if a.order == b.order:
                    assert is_isometric(a, b) == oracle.is_isometric(a, b), (a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(st.sampled_from(LIBRARY),
                     st.sampled_from([disc_a1_power(4), disc_a1_power(6), disc_a1_power(7),
                                      build_space([6, 12], ["1/6", "1/12"])]),
                     random_space().map(_sum_of)),
           st.randoms(use_true_random=False))
    def test_isometry_witnesses_on_basis_changes(self, s, rng):
        u, _ = basis_change(s, rng)
        assert is_isometric(s, u) == oracle.is_isometric(s, u)
        assert is_isometric(u, s) == oracle.is_isometric(u, s)

    def test_isotropic_lists_on_the_library(self):
        for s in LIBRARY:
            assert _listed(isotropic_subgroups(s)) == _listed(oracle.isotropic_subgroups(s)), s

    @pytest.mark.parametrize("n", range(1, 9))
    def test_isotropic_lists_of_a1_powers(self, n):
        s = disc_a1_power(n)
        assert _listed(isotropic_subgroups(s)) == _listed(oracle.isotropic_subgroups(s))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_closure_and_generated_subgroups(self, data):
        s = data.draw(st.sampled_from(LIBRARY))
        coords = st.tuples(*(st.integers(-d, 2 * d) for d in s.orders))
        gens = data.draw(st.lists(coords, max_size=3))
        want = oracle.closure(s, gens)
        assert closure(s, gens) == want
        c = subgroup_from_generators(s, gens)
        assert c.elements == tuple(sorted(want))
        assert c.generators == oracle.minimal_chain(s, want)

    def test_present_subquotient_on_every_isotropic_quotient(self):
        # The rows of V^(-1) read off U R against the rat_inv inverse.
        for s in LIBRARY:
            for c in isotropic_subgroups(s):
                args = (s.orders, s.gram, orthogonal_complement(s, c).generators,
                        c.generators)
                assert present_subquotient(*args) == kernel_oracle.present_subquotient(*args)

    def test_spaces_encoded_without_the_nondegeneracy_test_pass_it(self, monkeypatch):
        # C-perp/C, primary parts and the odd Jordan steps are nondegenerate
        # by construction, so subquotient skips the Smith-form test of
        # space_from_gram; every one built from the library passes it.
        encode = space_module._canonical_space
        built = []

        def recorded(*args):
            built.append(encode(*args))
            return built[-1]

        monkeypatch.setattr(space_module, "_canonical_space", recorded)
        for s in LIBRARY:
            for c in isotropic_subgroups(s):
                quotient_space(s, c)
            for p, part in primary_decomposition(s).items():
                if p > 2:
                    jordan_blocks_odd(part, p)
        assert len(built) > len(LIBRARY)
        for t in built:
            assert space_module._nondegenerate(t.orders, t.level, t.gram) is None

    def test_a1_power_9(self):
        # The doubly-even codes of length 9.  The oracle takes several
        # seconds on this space, so it is left out; the search is not timed.
        s = disc_a1_power(9)
        subs = isotropic_subgroups(s)
        assert len(subs) == 4006
        assert len({c.elements for c in subs}) == 4006
        assert all(oracle.pair(s, x, x) % (2 * s.level) == 0 for c in subs for x in c.elements)


@pytest.mark.parametrize("call", [
    lambda: subgroup_from_generators(disc_A1(), [(True,)]),
    lambda: verify_isometry(disc_A1(), disc_A1(), ((True,),)),
    lambda: is_isometric(disc_A1(), disc_A1(), cap=True),
    lambda: is_isometric(disc_A1(), disc_A1(), cap=-1),
    lambda: isotropic_subgroups(disc_A1(), cap=True),
    lambda: isotropic_subgroups(disc_A1(), cap=-1),
], ids=["generator", "image", "isometry-cap", "isometry-cap-negative", "isotropic-cap",
        "isotropic-cap-negative"])
def test_bool_is_not_an_integer(call):
    with pytest.raises(ValidationError):
        call()


class TestDebugLog:
    def _lines(self, caplog, name):
        return [rec.getMessage() for rec in caplog.records if rec.name == name]

    def test_one_line_per_isotropic_search(self, caplog):
        name = "genusforge.quadspace.subgroups"
        with caplog.at_level(logging.DEBUG, logger=name):
            isotropic_subgroups(hyperbolic_plane())
        lines = self._lines(caplog, name)
        assert len(lines) == 1
        assert "isotropic subgroups of |A| = 4: 1 nodes expanded, 3 subgroups" in lines[0]

    def test_one_line_per_isometry_search(self, caplog):
        # Equal spaces and spaces with different q values are answered with
        # no search and no line; the swap of two generators takes a search.
        name = "genusforge.quadspace.isometry"
        swapped = build_space([2, 2], ["1/2", "3/2"]), build_space([2, 2], ["3/2", "1/2"])
        with caplog.at_level(logging.DEBUG, logger=name):
            is_isometric(hyperbolic_plane(), hyperbolic_plane())
            is_isometric(hyperbolic_plane(), build_space([2, 2], ["1/2", "1/2"]))
            assert is_isometric(*swapped) == ((0, 1), (1, 0))
        lines = self._lines(caplog, name)
        assert len(lines) == 1
        assert "isometry search on |A| = 4: 2 nodes, witness found" in lines[0]

    def test_isometry_line_counts_forward_cuts(self, caplog):
        # [2, 8]: e_1 -> (1, 0) leaves no image for e_2, which needs q = 1/8
        # on some (0, odd), and those have q = 5/8 or 13/8; the next choice,
        # (1, 4), completes.  [2, 2, 2, 4]: one choice empties one of the
        # later rows but not all of them.
        name = "genusforge.quadspace.isometry"
        pairs = [
            (build_space([2, 8], ["1/2", "1/8"]), build_space([2, 8], ["1/2", "5/8"]),
             "|A| = 16: 3 nodes, witness found, 1 cut by forward checking"),
            (build_space([2, 2, 2, 4], ["1/2", "1/2", "3/2", "1/4"]),
             build_space([2, 2, 2, 4], ["1/2", "0", "0", "1/4"],
                         [["1/2", 0, 0, 0], [0, 0, "1/2", 0], [0, "1/2", 0, 0],
                          [0, 0, 0, "1/4"]]),
             "|A| = 32: 5 nodes, witness found, 1 cut by forward checking"),
        ]
        for a, b, want in pairs:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger=name):
                assert is_isometric(a, b) == oracle.is_isometric(a, b) is not None
            lines = self._lines(caplog, name)
            assert len(lines) == 1
            assert want in lines[0]

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="genusforge.quadspace"):
            isotropic_subgroups(hyperbolic_plane())
            is_isometric(hyperbolic_plane(), hyperbolic_plane())
        assert not [rec for rec in caplog.records if rec.name.startswith("genusforge")]
