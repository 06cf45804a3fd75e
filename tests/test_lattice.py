"""Tests for even lattices, their discriminant forms, and overlattices.

The theta oracles are classical coefficient tables and the node-by-node
enumeration in `theta_oracle.py`; the overlattice and genus checks lean
on the quadspace layer, which is tested independently.
"""

import logging
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusforge.errors import (
    LimitError,
    NotPositiveDefiniteError,
    ValidationError,
)
from genusforge.lattice import (
    build_lattice,
    builtin_lattice,
    discriminant_form,
    exists_lattice,
    genus_symbol,
    lattice_a,
    lattice_d,
    lattice_d16_plus,
    lattice_e8,
    lattice_e8e8,
    lattice_from_json,
    lattice_to_json,
    overlattices,
    root_system,
    same_genus,
    short_vectors,
    signature,
    theta_coefficients,
)
from genusforge.lattice import theta
from genusforge.lattice.roots import _simple_roots
from genusforge.quadspace import (
    build_space,
    is_isometric,
    quotient_space,
    signature_mod8,
    trivial_space,
)
from theta_oracle import (
    fraction_ldl,
    lattice_basis_change,
    oracle_root_system,
    oracle_short_vectors,
    oracle_simple_roots,
    oracle_theta,
    orthogonal_sum,
)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValidationError):
            build_lattice([[1]])  # odd diagonal
        with pytest.raises(ValidationError):
            build_lattice([[2, 1], [0, 2]])  # not symmetric
        with pytest.raises(ValidationError):
            build_lattice([[2, 2], [2, 2]])  # singular
        with pytest.raises(ValidationError):
            build_lattice([])
        with pytest.raises(ValidationError):
            theta_coefficients(lattice_a(1), True)
        with pytest.raises(ValidationError):
            short_vectors(lattice_a(1), True)

    def test_builtin_determinants(self):
        cases = [("A1", 2), ("A2", 3), ("A7", 8), ("D2", 4), ("D8", 4),
                 ("E8", 1), ("E8E8", 1), ("D16+", 1)]
        for name, det in cases:
            assert builtin_lattice(name).det == det

    def test_builtin_aliases(self):
        assert builtin_lattice("e8+e8").name == "E8E8"
        assert builtin_lattice("d16plus").name == "D16+"
        with pytest.raises(ValidationError):
            builtin_lattice("F4")
        with pytest.raises(ValidationError):
            builtin_lattice("A0")

    def test_json_round_trip(self):
        l = lattice_d(5)
        doc = lattice_to_json(l)
        back = lattice_from_json(doc)
        assert back.gram == l.gram and back.name == l.name
        with pytest.raises(ValidationError):
            lattice_from_json({"name": "x"})

    def test_inner_product(self):
        a2 = lattice_a(2)
        assert a2.norm((1, 0)) == 2
        assert a2.inner((1, 0), (0, 1)) == -1
        assert a2.norm((1, 1)) == 2


class TestDiscriminantForm:
    def test_a1(self):
        s = discriminant_form(lattice_a(1))
        assert s.orders == (2,)
        assert s.eval_q((1,)).value == Fraction(1, 2)

    def test_a2_from_plus_convention(self):
        s = discriminant_form(build_lattice([[2, 1], [1, 2]]))
        assert s.orders == (3,)
        assert s.eval_q((1,)).value == Fraction(2, 3)

    def test_unimodular_trivial(self):
        assert discriminant_form(lattice_e8()).order == 1
        assert discriminant_form(lattice_d16_plus()).order == 1

    def test_group_order_is_determinant(self):
        for name in ("A1", "A2", "A5", "D4", "D7", "E8"):
            l = builtin_lattice(name)
            assert discriminant_form(l).order == abs(l.det)

    def test_d8_values(self):
        s = discriminant_form(lattice_d(8))
        assert s.orders == (2, 2)
        qs = sorted(v.value for v in s.q_values().values())
        assert qs == [0, 0, 0, 1]

    def test_an_cyclic(self):
        # disc(A_n) is cyclic of order n+1 with q = n/(n+1) on a generator.
        for n in (1, 2, 3, 4, 6):
            s = discriminant_form(lattice_a(n))
            assert s.orders == (n + 1,)
            vals = {v.value for v in s.q_values().values()}
            assert Fraction(n, n + 1) in vals


class TestGenus:
    def test_signature_positive_definite(self):
        assert signature(lattice_e8()) == (8, 0)
        assert signature(lattice_a(3)) == (3, 0)

    def test_signature_indefinite(self):
        u = build_lattice([[0, 1], [1, 0]])
        assert signature(u) == (1, 1)

    def test_milgram_on_builtins(self):
        for name in ("A1", "A2", "A6", "D4", "D5", "D8", "E8", "D16+"):
            l = builtin_lattice(name)
            gs = genus_symbol(l)  # validates the mod-8 relation internally
            pos, neg = gs.signature
            assert signature_mod8(gs.disc_form) == (pos - neg) % 8

    def test_same_genus(self):
        assert same_genus(lattice_e8(), lattice_e8())
        assert same_genus(lattice_e8e8(), lattice_d16_plus())
        assert not same_genus(lattice_a(1), lattice_a(2))
        # Same determinant, different signature.
        u = build_lattice([[0, 1], [1, 0]])
        d = build_lattice([[2, 1], [1, 2]])
        assert not same_genus(u, build_lattice([[2, 0], [0, 2]]))
        assert not same_genus(u, d)

    def test_exists_lattice(self):
        assert exists_lattice(trivial_space(), (8, 0)) == "yes"
        assert exists_lattice(trivial_space(), (1, 0)) == "no"
        assert exists_lattice(build_space([2], ["1/2"]), (1, 0)) == "unknown"
        assert exists_lattice(build_space([2], ["1/2"]), (2, 1)) == "yes"
        assert exists_lattice(build_space([2], ["1/2"]), (2, 0)) == "no"
        with pytest.raises(ValidationError):
            exists_lattice(trivial_space(), (-1, 0))


class TestOverlattices:
    def test_e8_only_trivial(self):
        res = overlattices(lattice_e8())
        assert len(res) == 1
        assert res[0][0].order == 1
        assert res[0][1].gram == lattice_e8().gram

    def test_a1_a1_only_trivial(self):
        res = overlattices(build_lattice([[2, 0], [0, 2]]))
        assert len(res) == 1

    def test_d8_gives_e8_twice(self):
        res = overlattices(lattice_d(8))
        assert [c.order for c, _ in res] == [1, 2, 2]
        for c, k in res:
            if c.order == 1:
                continue
            assert k.det == 1
            assert discriminant_form(k).order == 1
            assert theta_coefficients(k, 2) == (1, 240, 2160)
            assert root_system(k).components == (("E", 8),)

    def test_invariants_on_samples(self):
        for name in ("D8", "A3", "D4", "A7"):
            l = builtin_lattice(name)
            disc = discriminant_form(l)
            for c, k in overlattices(l):
                assert k.det * c.order ** 2 == l.det
                w = is_isometric(discriminant_form(k), quotient_space(disc, c))
                assert w is not None

    def test_a1_a7_reaches_e8(self):
        a7 = lattice_a(7).gram
        gram = [[2] + [0] * 7] + [[0] + list(row) for row in a7]
        res = overlattices(build_lattice(gram))
        tops = [k for c, k in res if c.order == 4]
        assert len(tops) == 1
        assert root_system(tops[0]).components == (("E", 8),)


class TestTheta:
    def test_a1(self):
        assert theta_coefficients(lattice_a(1), 2) == (1, 2, 0)

    def test_e8(self):
        # 240 sigma_3(m): 240, 2160, 6720, 17520.
        assert theta_coefficients(lattice_e8(), 4) == (1, 240, 2160, 6720, 17520)

    def test_sixteen_dimensional_pair(self):
        t1 = theta_coefficients(lattice_e8e8(), 3)
        t2 = theta_coefficients(lattice_d16_plus(), 3)
        assert t1 == t2 == (1, 480, 61920, 1050240)

    def test_short_vectors_a2(self):
        sv = short_vectors(lattice_a(2), 2)
        assert len(sv) == 6
        assert all(lattice_a(2).norm(v) == 2 for v in sv)
        assert set(sv) == {tuple(-x for x in v) for v in sv}

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            theta_coefficients(build_lattice([[2, 0], [0, -2]]), 1)
        with pytest.raises(NotPositiveDefiniteError):
            short_vectors(build_lattice([[0, 1], [1, 0]]), 2)

    def test_cap(self):
        with pytest.raises(LimitError):
            theta_coefficients(lattice_a(1), 100, cap=64)
        with pytest.raises(ValidationError):
            theta_coefficients(lattice_a(1), -1)

    def test_counts_are_even(self):
        for name in ("A3", "D5", "E8"):
            th = theta_coefficients(builtin_lattice(name), 3)
            assert th[0] == 1
            assert all(c % 2 == 0 for c in th[1:])


class TestRootSystems:
    @pytest.mark.parametrize("name,expected", [
        ("A1", (("A", 1),)),
        ("A5", (("A", 5),)),
        ("D4", (("D", 4),)),
        ("D10", (("D", 10),)),
        ("E8", (("E", 8),)),
        ("E8E8", (("E", 8), ("E", 8))),
        ("D16+", (("D", 16),)),
    ])
    def test_builtin_components(self, name, expected):
        assert root_system(builtin_lattice(name)).components == expected

    def test_root_count_matches_theta(self):
        for name in ("A4", "D6", "E8"):
            l = builtin_lattice(name)
            assert root_system(l).root_count == theta_coefficients(l, 1)[1]

    def test_mixed_sum(self):
        gram = [[2, -1, 0], [-1, 2, 0], [0, 0, 2]]
        r = root_system(build_lattice(gram))
        assert r.components == (("A", 1), ("A", 2))
        assert r.root_count == 8

    def test_rootless(self):
        assert root_system(build_lattice([[4]])).components == ()

    def test_e6_e7(self):
        def dynkin(n, edges):
            g = [[0] * n for _ in range(n)]
            for i in range(n):
                g[i][i] = 2
            for i, j in edges:
                g[i][j] = g[j][i] = -1
            return g

        e6 = dynkin(6, [(i, i + 1) for i in range(4)] + [(2, 5)])
        e7 = dynkin(7, [(i, i + 1) for i in range(5)] + [(2, 6)])
        assert root_system(build_lattice(e6)).components == (("E", 6),)
        assert root_system(build_lattice(e7)).root_count == 126


class TestGenusSeparation:
    def test_same_genus_different_roots(self):
        # The classical rank-16 pair: one genus, two isometry classes.
        a, b = lattice_e8e8(), lattice_d16_plus()
        assert same_genus(a, b)
        assert root_system(a).components != root_system(b).components


@st.composite
def small_definite_lattice(draw):
    """Random GL_n(Z)-conjugate of a small definite diagonal lattice."""
    n = draw(st.integers(1, 3))
    diag = [draw(st.sampled_from([2, 4, 6])) for _ in range(n)]
    g = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if i == j:
            continue
        c = draw(st.integers(-2, 2))
        # Symmetric basis change: row then column.
        for t in range(n):
            g[i][t] += c * g[j][t]
        for t in range(n):
            g[t][i] += c * g[t][j]
    return g


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(small_definite_lattice())
    def test_genus_data_stable_under_basis_change(self, gram):
        l = build_lattice(gram)
        disc = discriminant_form(l)
        assert disc.order == abs(l.det)
        gs = genus_symbol(l)  # Milgram check runs inside
        assert gs.signature == (l.rank, 0)
        th = theta_coefficients(l, 2)
        assert th[0] == 1 and all(c % 2 == 0 for c in th[1:])
        for c, k in overlattices(l, cap=512):
            assert k.det * c.order ** 2 == l.det
            assert theta_coefficients(k, 1)[1] >= th[1]


ORACLE_NAMES = ("A1", "A2", "A5", "A7", "D4", "D8", "E8", "E8E8", "D16+")
ORACLE_LATTICES = (
    [builtin_lattice(name) for name in ORACLE_NAMES]
    + [orthogonal_sum([lattice_a(1)] * 4 + [lattice_a(3)]),
       orthogonal_sum([lattice_d(4)] * 2)])
ORACLE_IDS = ORACLE_NAMES + ("A1^4+A3", "D4^2")
# The recursive oracle on a rank-16 basis change costs up to seconds, so
# hypothesis draws only from these; every lattice is checked once below.
SMALL_ORACLE_LATTICES = [l for l in ORACLE_LATTICES if l.rank <= 8]


def assert_matches_oracle(l):
    for norm in (2, 4):
        assert short_vectors(l, norm) == oracle_short_vectors(l, norm)
    assert theta_coefficients(l, 2) == oracle_theta(l, 2)
    report = root_system(l)
    assert (report.components, report.root_count) == oracle_root_system(l)
    simple, _ = _simple_roots(l, short_vectors(l, 2))
    assert set(map(tuple, simple.tolist())) == oracle_simple_roots(l)


class TestEnumerationOracle:
    """The level-at-a-time enumeration and the Gram-matrix simple-root test
    against the node-by-node recursion and the tuple scan they replaced."""

    @pytest.mark.parametrize("index", range(len(ORACLE_LATTICES)), ids=ORACLE_IDS)
    def test_every_lattice_under_a_seeded_basis_change(self, index):
        base = ORACLE_LATTICES[index]
        assert_matches_oracle(lattice_basis_change(base, random.Random(index)))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_ORACLE_LATTICES), st.randoms(use_true_random=False))
    def test_matches_oracle_under_basis_change(self, base, rng):
        assert_matches_oracle(lattice_basis_change(base, rng))

    @pytest.mark.parametrize("index", range(len(ORACLE_LATTICES)), ids=ORACLE_IDS)
    def test_fraction_free_ldl_matches_fraction_ldl(self, index):
        base = ORACLE_LATTICES[index]
        for l in (base, lattice_basis_change(base, random.Random(100 + index))):
            assert theta._ldl(l.gram) == fraction_ldl(l.gram)

    def test_chunks_split_inside_a_parent(self, monkeypatch):
        # Chunks of 5 rows cut most levels' children mid-parent.
        monkeypatch.setattr(theta, "_CHUNK_ROWS", 5)
        for l in (lattice_e8(), orthogonal_sum([lattice_d(4)] * 2)):
            assert short_vectors(l, 4) == oracle_short_vectors(l, 4)
            assert theta_coefficients(l, 3) == oracle_theta(l, 3)

    def test_debug_log_reports_the_work(self, caplog):
        caplog.set_level(logging.DEBUG, logger=theta.__name__)
        short_vectors(lattice_e8(), 2)
        [record] = [r for r in caplog.records if r.name == theta.__name__]
        leaves = int(re.search(r"(\d+) leaf candidates", record.getMessage())[1])
        assert leaves >= 120  # the positive half of the 240 roots
