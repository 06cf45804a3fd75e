"""Tests for even lattices, their discriminant forms, and overlattices.

The theta oracles are classical coefficient tables and the node-by-node
enumeration in `theta_oracle.py`; the overlattice and genus checks lean
on the quadspace layer, which is tested independently.
"""

import importlib
import logging
import random
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genusforge.exactkernel as exactkernel
import genusforge.quadspace as quadspace
from genusforge.errors import (
    InternalError,
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
from genusforge.lattice import discform, overlattice, theta
from genusforge.lattice.discform import _disc_with_lifts
from genusforge.lattice.roots import RootSystemReport, _simple_roots
from genusforge.modcat import simple_current_extensions
from genusforge.quadspace import (
    build_space,
    is_isometric,
    isotropic_subgroups,
    quotient_space,
    signature_mod8,
    trivial_space,
    verify_isometry,
)
from genusforge.quadspace import space as space_module
import kernel_oracle
from space_oracle import assert_tables_match, oracle_q
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
        assert oracle_q(s, (1,)) == Fraction(1, 2)

    def test_a2_from_plus_convention(self):
        s = discriminant_form(build_lattice([[2, 1], [1, 2]]))
        assert s.orders == (3,)
        assert oracle_q(s, (1,)) == Fraction(2, 3)

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
        qs = sorted(oracle_q(s, x) for x in s.elements())
        assert qs == [0, 0, 0, 1]

    def test_an_cyclic(self):
        # disc(A_n) is cyclic of order n+1 with q = n/(n+1) on a generator.
        for n in (1, 2, 3, 4, 6):
            s = discriminant_form(lattice_a(n))
            assert s.orders == (n + 1,)
            vals = {oracle_q(s, x) for x in s.elements()}
            assert Fraction(n, n + 1) in vals


class TestGenus:
    def test_signature_positive_definite(self):
        assert signature(lattice_e8()) == (8, 0)
        assert signature(lattice_a(3)) == (3, 0)

    def test_signature_indefinite(self):
        u = build_lattice([[0, 1], [1, 0]])
        assert signature(u) == (1, 1)

    def test_signature_reads_the_leading_minors(self):
        # Positive definite lattices never pivot: the kept rows are the
        # unpivoted elimination, and every leading minor is positive.
        pairs = [(lattice_e8e8(), lattice_d16_plus()), (lattice_d(16), lattice_basis_change(
            lattice_d(16), random.Random(3))), (lattice_a(5), lattice_a(5))]
        for l1, l2 in pairs:
            for l in (l1, l2):
                assert l.elimination == kernel_oracle.unpivoted_elimination(l.gram)
            assert same_genus(l1, l2)
            assert genus_symbol(l1).signature == genus_symbol(l2).signature == (l1.rank, 0)

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

    def test_equal_forms_skip_the_isometry_search(self, monkeypatch):
        calls = []
        search = quadspace.is_isometric
        monkeypatch.setattr(quadspace, "is_isometric",
                            lambda *a, **k: calls.append(a) or search(*a, **k))
        assert same_genus(lattice_e8e8(), lattice_d16_plus())
        base = orthogonal_sum([lattice_a(1)] * 2)
        assert same_genus(base, lattice_basis_change(base, random.Random(1)))
        assert calls == []
        # seed 0 gives the same form on other generators: the search decides
        other = lattice_basis_change(base, random.Random(0))
        assert discriminant_form(other) != discriminant_form(base)
        assert same_genus(base, other) and len(calls) == 1

    @pytest.mark.parametrize("names", [
        ["A1"] * 11, ["A1"] * 12, ["A1"] * 16, ["A1"] * 24, ["A2"] * 7, ["A2"] * 12,
        ["D4"] * 5, ["A1", "A2", "A3", "A4", "A5"], ["A7", "A6", "D5"], ["E8", "A1", "D7"],
    ], ids=lambda names: "+".join(names) if len(set(names)) > 1 else f"{names[0]}^{len(names)}")
    def test_signature_mod8_is_the_rank_on_root_lattice_sums(self, names):
        # Positive definite, so the signature is the rank; the Jordan route
        # reads it without the element table, here up to |A| = 2^24.
        base = orthogonal_sum([builtin_lattice(n) for n in names])
        for l in (base, lattice_basis_change(base, random.Random(len(names)))):
            s = discriminant_form(l)
            assert signature_mod8(s) == l.rank % 8
            assert "table" not in vars(s)

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
        # The oracle: K*/K is isometric to C-perp / C, by a quotient
        # presentation and an isometry search that overlattices never runs.
        samples = [builtin_lattice("D4")] + list(OVERLATTICE_LATTICES)
        for index, base in enumerate(samples):
            for l in (base, lattice_basis_change(base, random.Random(400 + index))):
                disc = discriminant_form(l)
                for c, k in overlattices(l):
                    assert k.det * c.order ** 2 == l.det
                    w = is_isometric(discriminant_form(k), quotient_space(disc, c))
                    assert w is not None

    def test_no_isometry_cap(self):
        # |A| = 3200 is over the isometry cap of 3000; only the subgroup
        # cap applies.
        l = build_lattice([[3200]])
        want = [r.subgroup.order for r in simple_current_extensions(discriminant_form(l))]
        found = overlattices(l)
        assert [c.order for c, _ in found] == want == [1, 2, 4, 5, 8, 10, 20, 40]
        assert [k.det for _, k in found] == [3200 // (m * m) for m in want]

    def test_one_smith_form_and_no_quotient_form(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("overlattices re-checked a form")

        for name in ("quotient_space", "is_isometric", "discriminant_form"):
            monkeypatch.setattr(overlattice, name, refuse, raising=False)
        calls = count_smith_forms(monkeypatch)
        lattices = OVERLATTICE_LATTICES[:3]
        assert [len(overlattices(l)) for l in lattices] == [3, 16, 31]
        # One elimination of each Gram gives both U and V.
        grams = [args[0] for args in calls]
        assert [grams.count(l.gram) for l in lattices] == [1, 1, 1]

    def test_class_outside_the_subgroup_is_refused(self, monkeypatch):
        # Each K is built from the generators of one subgroup and checked
        # against the elements of another of the same order; the quotient
        # forms of the two agree (both trivial), so only the classes tell.
        l = lattice_d(8)
        found = isotropic_subgroups(discriminant_form(l))
        order_two = [c for c in found if c.order == 2]
        assert len(order_two) == 2
        for c, other in (order_two, order_two[::-1]):
            swapped = quadspace.Subgroup(elements=other.elements, generators=c.generators)
            monkeypatch.setattr(overlattice, "isotropic_subgroups",
                                lambda s, cap: [found[0], swapped])
            with pytest.raises(InternalError, match="class outside C"):
                overlattices(l)

    def test_debug_log_names_the_proof(self, caplog):
        caplog.set_level(logging.DEBUG, logger=overlattice.__name__)
        overlattices(orthogonal_sum([lattice_d(4)] * 2))
        [record] = [r for r in caplog.records if r.name == overlattice.__name__]
        assert re.fullmatch(r"overlattices of \|A\| = 16: 16 isotropic subgroups, "
                            r"16 overlattices, each proved by K/L = C, \d+\.\d{3} s",
                            record.getMessage())

    @pytest.mark.parametrize("cap", [True, -1])
    def test_cap_must_be_a_nonnegative_integer(self, cap):
        with pytest.raises(ValidationError):
            overlattices(lattice_d(8), cap=cap)

    def test_a1_a7_reaches_e8(self):
        a7 = lattice_a(7).gram
        gram = [[2] + [0] * 7] + [[0] + list(row) for row in a7]
        res = overlattices(build_lattice(gram))
        tops = [k for c, k in res if c.order == 4]
        assert len(tops) == 1
        assert root_system(tops[0]).components == (("E", 8),)


OVERLATTICE_NAMES = ("D8", "D4^2", "A1^6", "A3", "A7", "A1+A7")
OVERLATTICE_LATTICES = (
    lattice_d(8), orthogonal_sum([lattice_d(4)] * 2), orthogonal_sum([lattice_a(1)] * 6),
    lattice_a(3), lattice_a(7), orthogonal_sum([lattice_a(1), lattice_a(7)]))


class TestIntegerLifts:
    """Integer lifts over the level against the Fraction lifts they replaced."""

    @pytest.mark.parametrize("index", range(len(OVERLATTICE_LATTICES)), ids=OVERLATTICE_NAMES)
    def test_overlattice_grams_match_fraction_lifts(self, index):
        base = OVERLATTICE_LATTICES[index]
        for l in (base, lattice_basis_change(base, random.Random(200 + index))):
            _, columns, orders, _ = _disc_with_lifts(l)
            found = overlattices(l)
            want = kernel_oracle.overlattice_grams(
                l, kernel_oracle.rational_lifts(columns, orders), [c for c, _ in found])
            assert [k.gram for _, k in found] == want

    def test_lattice_path_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built on the lattice path")

        e8e8, d16p = lattice_e8e8(), lattice_d16_plus()
        d8, d4d4 = lattice_d(8), orthogonal_sum([lattice_d(4)] * 2)
        for name in ("genusforge.exactkernel.intmatrix", "genusforge.lattice.discform",
                     "genusforge.lattice.overlattice", "genusforge.quadspace.present"):
            monkeypatch.setattr(importlib.import_module(name), "Fraction", refuse,
                                raising=False)
        disc = discriminant_form(d4d4)
        assert disc.orders == (2, 2, 2, 2)
        assert same_genus(e8e8, d16p)
        assert [c.order for c, _ in overlattices(d8)] == [1, 2, 2]
        for c in isotropic_subgroups(disc):
            assert quotient_space(disc, c).order == disc.order // c.order ** 2


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

    @pytest.mark.parametrize("gram, pivot", [
        (((2, 0, 1), (0, -2, 0), (1, 0, 2)), 1),
        (orthogonal_sum([lattice_e8(), build_lattice([[-2]])]).gram, 8),
        (orthogonal_sum([build_lattice([[0, 1], [1, 0]]), lattice_e8()]).gram, 9),
    ], ids=["A2+A1(-1) interleaved", "E8+A1(-1)", "U+E8"])
    def test_indefinite_block_beside_a_definite_one(self, gram, pivot):
        # The whole Gram is tested before it is split into components, so
        # the pivot named is the whole lattice's, not the indefinite block's.
        l = build_lattice(gram)
        for call in (lambda: theta_coefficients(l, 2), lambda: root_system(l),
                     lambda: short_vectors(l, 2)):
            with pytest.raises(NotPositiveDefiniteError) as err:
                call()
            assert str(err.value) == f"Gram matrix is not positive definite (pivot {pivot})"

    def test_cap(self):
        with pytest.raises(LimitError):
            theta_coefficients(lattice_a(1), 100, cap=64)
        with pytest.raises(ValidationError):
            theta_coefficients(lattice_a(1), -1)
        for cap in (True, 2.5, -1):
            with pytest.raises(ValidationError):
                theta_coefficients(lattice_a(1), 0, cap=cap)

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


# Orthogonal sums whose basis is permuted, so that the components of the
# first two are not runs of consecutive indices.
INTERLEAVED_SUMS = {"E8+A2+A1+A1": [lattice_e8(), lattice_a(2), lattice_a(1), lattice_a(1)],
                    "D4+D4": [lattice_d(4)] * 2, "A1^5": [lattice_a(1)] * 5}


def interleaved(l, rng):
    p = rng.sample(range(l.rank), l.rank)
    return build_lattice([[l.gram[i][j] for j in p] for i in p])


class TestEnumerationOracle:
    """The level-at-a-time enumeration and the Gram-matrix simple-root test
    against the node-by-node recursion and the tuple scan they replaced."""

    @pytest.mark.parametrize("name", INTERLEAVED_SUMS)
    def test_interleaved_orthogonal_sums(self, name):
        # theta and roots are computed per component; the oracle enumerates
        # the whole lattice.
        l = interleaved(orthogonal_sum(INTERLEAVED_SUMS[name]), random.Random(7))
        assert theta_coefficients(l, 3) == oracle_theta(l, 3)
        report = root_system(l)
        assert (report.components, report.root_count) == oracle_root_system(l)

    def test_each_distinct_block_is_enumerated_once(self, monkeypatch):
        ranks = []
        original = theta._enumerate

        def recorded(l, *args, **kwargs):
            ranks.append(l.rank)
            return original(l, *args, **kwargs)

        monkeypatch.setattr(theta, "_enumerate", recorded)
        assert theta_coefficients(lattice_e8e8(), 2) == (1, 480, 61920)
        assert ranks == [8]
        ranks.clear()
        report = root_system(orthogonal_sum([lattice_a(1)] * 7))
        assert report == RootSystemReport((("A", 1),) * 7, 14)
        assert ranks == [1]
        ranks.clear()
        assert theta_coefficients(lattice_d16_plus(), 2) == (1, 480, 61920)
        assert ranks == [16]

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
        # The kept elimination read as exact Fractions is the LDL^T, and the
        # enumeration's floats are its correctly rounded values.
        base = ORACLE_LATTICES[index]
        for l in (base, lattice_basis_change(base, random.Random(100 + index))):
            rows = l.elimination
            minors = [1] + [row[0] for row in rows]
            d = [Fraction(minors[j + 1], minors[j]) for j in range(l.rank)]
            low = [[Fraction(rows[j][i - j], minors[j + 1]) if i > j else Fraction(int(i == j))
                    for j in range(l.rank)] for i in range(l.rank)]
            assert (d, low) == fraction_ldl(l.gram)
            df, lf = theta._factors(l)
            assert df.tolist() == [float(x) for x in d]
            assert lf.tolist() == [[float(x) if i > j else 0.0 for j, x in enumerate(row)]
                                   for i, row in enumerate(low)]

    def test_functional_past_int64_uses_python_integers(self):
        # Rank 52: p^51 alone passes 2^62, so f is evaluated in Python ints.
        l = orthogonal_sum([lattice_a(2)] * 24 + [lattice_d(4)])
        report = root_system(l)
        assert (report.components, report.root_count) == oracle_root_system(l)
        simple, _ = _simple_roots(l, short_vectors(l, 2))
        assert set(map(tuple, simple.tolist())) == oracle_simple_roots(l)

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

    def test_enumeration_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built by the enumeration")

        lattices = [lattice_e8e8(), lattice_basis_change(lattice_d(8), random.Random(5)),
                    skewed(lattice_a(3), SKEW_A3)]
        assert "Fraction" not in vars(theta)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        for l in lattices:
            assert theta_coefficients(l, 2)[0] == 1
            assert short_vectors(l, 2)
            assert root_system(l).root_count


# det U = 1, and the Gram entries of A3 on this basis reach 2 * 10^14.
SKEW_A3 = ((1, 10 ** 4, 0), (10 ** 3, 10 ** 7 + 1, 0), (0, 0, 1))


def skewed(l, u):
    """l on the basis U e: Gram U G U^T."""
    return build_lattice(exactkernel.mat_mul(exactkernel.mat_mul(u, l.gram),
                                             exactkernel.transpose(u)))


def moved_vectors(vectors, u):
    """Coordinates r U^(-1) on the basis U e of the vectors r, exactly."""
    inv = kernel_oracle.int_inv_unimodular(u)
    return sorted(tuple(sum(a * b for a, b in zip(r, col)) for col in zip(*inv))
                  for r in vectors)


class TestSkewedBases:
    """Enumeration on skewed bases against the exact image of the roots:
    each answer is complete or a LimitError, never short."""

    def test_skewed_a3_keeps_every_root(self):
        l = skewed(lattice_a(3), SKEW_A3)
        assert max(abs(x) for row in l.gram for x in row) > 10 ** 14
        roots = moved_vectors(short_vectors(lattice_a(3), 2), SKEW_A3)
        assert len(roots) == 12
        assert short_vectors(l, 2) == roots
        assert theta_coefficients(l, 2) == (1, 12, 6)
        report = root_system(l)
        assert (report.components, report.root_count) == ((("A", 3),), 12)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from([lattice_a(2), lattice_a(3), lattice_d(4)]),
           st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-10 ** 4, 10 ** 4)),
                    min_size=1, max_size=2))
    def test_sheared_roots_are_all_found(self, base, moves):
        u = [[int(i == j) for j in range(base.rank)] for i in range(base.rank)]
        for i, j, c in moves:
            i, j = i % base.rank, j % base.rank
            if i != j:
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        l = skewed(base, u)
        try:
            got = short_vectors(l, 2)
        except LimitError:
            return
        assert got == moved_vectors(short_vectors(base, 2), u)

    def test_gram_entries_past_int64_raise_a_limit_error(self):
        shear = ((1, 10 ** 10), (0, 1))
        l = skewed(lattice_a(2), shear)
        assert max(abs(x) for row in l.gram for x in row) >= 2 ** 63
        for call in (lambda: theta_coefficients(l, 1), lambda: short_vectors(l, 2),
                     lambda: root_system(l)):
            with pytest.raises(LimitError):
                call()


U_GRAM = ((0, 1), (1, 0))
E8_NEGATIVE = [[-x for x in row] for row in lattice_e8().gram]
INDEFINITE_IDS = ("U", "U+A1", "E8(-1)+U", "A1+A1(-1)", "A2+A1(-1)")
INDEFINITE_LATTICES = [orthogonal_sum([build_lattice(g) for g in grams]) for grams in (
    [U_GRAM], [U_GRAM, [[2]]], [E8_NEGATIVE, U_GRAM], [[[2]], [[-2]]],
    [lattice_a(2).gram, [[-2]]])]


@st.composite
def even_gram(draw):
    """Even symmetric Gram matrices: random ones with mostly zero diagonals,
    and U^k (+) E8(-1) (+) <a>, a = +-2 or +-4, then symmetric shears and a
    permutation.  A drawn share gets one more basis vector, an integer
    combination of the others, which makes the Gram singular."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * draw(st.sampled_from([0, 0, 0, 1, -1, 2]))
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    else:
        blocks = [U_GRAM] * draw(st.integers(0, 3))
        if draw(st.booleans()):
            blocks.append(E8_NEGATIVE)
        blocks.append([[draw(st.sampled_from([-4, -2, 2, 4]))]])
        g = [list(row) for row in orthogonal_sum([build_lattice(b) for b in blocks]).gram]
    n = len(g)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.integers(-2, 2))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in g:
            row[i] += c * row[j]
    perm = draw(st.permutations(range(n)))
    g = [[g[i][j] for j in perm] for i in perm]
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        col = [sum(a * b for a, b in zip(row, c)) for row in g]
        g = [row + [x] for row, x in zip(g, col)] + [col + [sum(a * b for a, b in zip(col, c))]]
    return g


class TestOneElimination:
    """The one elimination pivots past vanishing minors by an integral
    congruence; its determinant and signature against the Fraction
    oracles, and its rows on positive definite Grams against the
    unpivoted elimination."""

    @settings(max_examples=300, deadline=None)
    @given(even_gram())
    def test_det_and_signature_match_the_fraction_oracles(self, gram):
        det = kernel_oracle.fraction_det(gram)
        if det == 0:
            with pytest.raises(ValidationError, match="Gram matrix is singular"):
                build_lattice(gram)
            return
        l = build_lattice(gram)
        assert len(l.elimination) == l.rank
        assert l.det == det
        assert signature(l) + (0,) == kernel_oracle.rational_signature(gram)

    @pytest.mark.parametrize("index", range(len(ORACLE_LATTICES)), ids=ORACLE_IDS)
    def test_positive_definite_rows_are_the_unpivoted_ones(self, index):
        base = ORACLE_LATTICES[index]
        for k in range(4):
            l = lattice_basis_change(base, random.Random(600 + 10 * index + k)) if k else base
            assert l.elimination == kernel_oracle.unpivoted_elimination(l.gram)


class TestSignatureOracle:
    """Signatures read off the leading minors of the one elimination
    against the Fraction oracle."""

    @pytest.mark.parametrize("index", range(len(ORACLE_LATTICES)), ids=ORACLE_IDS)
    def test_signature_matches_the_oracle(self, index):
        base = ORACLE_LATTICES[index]
        for l in (base, lattice_basis_change(base, random.Random(400 + index))):
            assert signature(l) + (0,) == kernel_oracle.rational_signature(l.gram)
            assert l.det == kernel_oracle.fraction_det(l.gram)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(ORACLE_LATTICES + INDEFINITE_LATTICES),
           st.randoms(use_true_random=False))
    def test_signature_matches_the_oracle_under_basis_change(self, base, rng):
        l = lattice_basis_change(base, rng)
        assert signature(l) + (0,) == kernel_oracle.rational_signature(l.gram)

    @pytest.mark.parametrize("index", range(len(INDEFINITE_LATTICES)), ids=INDEFINITE_IDS)
    def test_signature_of_indefinite_lattices(self, index):
        l = INDEFINITE_LATTICES[index]
        # U, U+A1 and E8(-1)+U have a vanishing leading minor, which the
        # elimination pivots past
        unpivoted = kernel_oracle.unpivoted_elimination(l.gram)
        assert (len(unpivoted) < l.rank) == (index < 3)
        assert len(l.elimination) == l.rank
        assert l.det == kernel_oracle.fraction_det(l.gram) == (-1, -2, -1, -4, -6)[index]
        assert signature(l) + (0,) == kernel_oracle.rational_signature(l.gram)


def count_smith_forms(monkeypatch):
    """Count smith_normal_form calls made through every genusforge module
    that binds it; returns the list that grows by one per call."""
    original = exactkernel.smith_normal_form
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("genusforge") and vars(module).get("smith_normal_form") is original:
            monkeypatch.setattr(module, "smith_normal_form", counted)
    return calls


SMITH_FORM_TRAFFIC = {"E8": 0, "E8E8": 0, "D16+": 0, "A1^4": 1, "D4": 1}


class TestLatticePathWork:
    """Discriminant forms and their quotients are nondegenerate by
    construction, so they skip the Smith-form nondegeneracy test, and a
    unimodular lattice needs no Smith form at all."""

    @pytest.mark.parametrize("name", SMITH_FORM_TRAFFIC)
    def test_smith_forms_per_discriminant_form(self, monkeypatch, name):
        base = (orthogonal_sum([lattice_a(1)] * 4) if name == "A1^4"
                else builtin_lattice(name))
        lattices = [base] + [lattice_basis_change(base, random.Random(k)) for k in range(3)]
        calls = count_smith_forms(monkeypatch)
        for l in lattices:
            before = len(calls)
            disc = discriminant_form(l)
            assert len(calls) - before == SMITH_FORM_TRAFFIC[name]
            assert disc.order == abs(l.det)

    def test_fresh_forms_on_one_group_share_its_arrays(self, monkeypatch):
        base = orthogonal_sum([lattice_a(1)] * 4)
        d = discriminant_form(base)
        changes, seed = {}, 0
        while len(changes) < 50:
            l = lattice_basis_change(base, random.Random(seed))
            changes.setdefault(l.gram, l)
            seed += 1
        calls = []
        indices = np.indices

        def counted(*args, **kwargs):
            calls.append(args)
            return indices(*args, **kwargs)

        monkeypatch.setattr(np, "indices", counted)
        for l in changes.values():
            e = discriminant_form(l)
            witness = is_isometric(d, e)
            assert witness is not None and verify_isometry(d, e, witness)
        assert len(calls) <= 1

    @pytest.mark.parametrize("index", range(len(ORACLE_LATTICES)), ids=ORACLE_IDS)
    def test_tables_of_discriminant_forms_match_the_per_space_oracle(self, index):
        base = ORACLE_LATTICES[index]
        d = discriminant_form(base)
        for k in range(3):
            e = discriminant_form(lattice_basis_change(base, random.Random(500 + k)))
            assert_tables_match(e)
            assert e.table.coords is d.table.coords

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SMALL_ORACLE_LATTICES), st.randoms(use_true_random=False))
    def test_tables_match_the_oracle_under_basis_change(self, base, rng):
        assert_tables_match(discriminant_form(lattice_basis_change(base, rng)))

    def test_discriminant_forms_and_quotients_pass_the_nondegeneracy_test(self, monkeypatch):
        encode = space_module._canonical_space
        built = []

        def recorded(*args):
            built.append(encode(*args))
            return built[-1]

        monkeypatch.setattr(space_module, "_canonical_space", recorded)
        monkeypatch.setattr(discform, "_canonical_space", recorded)
        library = ORACLE_LATTICES + list(OVERLATTICE_LATTICES)
        for index, base in enumerate(library):
            for l in (base, lattice_basis_change(base, random.Random(300 + index))):
                disc = discriminant_form(l)
                if disc.order <= 64:
                    for c, k in overlattices(l):
                        discriminant_form(k)
                        quotient_space(disc, c)
        assert len(built) > 2 * len(library)
        for t in built:
            assert space_module._nondegenerate(t.orders, t.level, t.gram) is None
