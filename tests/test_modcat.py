"""Modular data, relations, fusion, genus dimensions, and VOA checks."""

import dataclasses
import json
import logging
import random
import time
from fractions import Fraction
from math import lcm
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusforge.errors import LimitError, NonIntegralError, ValidationError
from genusforge.exactkernel import CyclotomicNumber, as_fraction, cyclotomic, gauss_phase
from genusforge.exactkernel.rationals import _Phase
from genusforge.lattice import builtin_lattice, discriminant_form
from genusforge.modcat import (
    ModularData,
    VoaGenusSymbol,
    build_modular_data,
    from_quadratic_space,
    fusion,
    genus_dimension,
    ising_data,
    modular_data_from_json,
    modular_data_to_json,
    product,
    simple_current_extensions,
    verify_relations,
    verlinde_fusion,
    voa,
    voa_genus_equal,
    voa_milgram_check,
)
from genusforge.modcat.fusion import _block_sum, _fusion_rows
from genusforge.modcat import relations
from genusforge.modcat.data import Terms
from genusforge.quadspace.gauss import _phase_counts
from genusforge.quadspace import (
    build_space,
    decompose,
    direct_sum,
    signature_mod8,
    space_from_json,
    space_to_json,
    trivial_space,
)
import modcat_oracle
from modcat_oracle import (
    block_sum_cyclotomic,
    eager_s_tilde,
    exponents_by_embedding,
    fusion_by_counts,
    fusion_cyclotomic,
    milgram_by_cyclotomics,
    signature_by_cyclotomics,
    verify_cyclotomic,
)
from space_library import space_library
from space_oracle import basis_change, oracle_twists_and_dual

F = Fraction


def _broken_variants(m):
    """m with the twist of label 1 moved by 1/8, and m with a wrong dual,
    where the labels allow them."""
    out = []
    if m.n > 1:
        twists = [t.value for t in m.twists]
        twists[1] += F(1, 8)
        out.append(build_modular_data(m.dual, m.s_tilde, twists))
    if m.n > 2:
        dual = tuple(m.labels)
        if m.dual == dual:
            dual = dual[:-2] + (m.n - 1, m.n - 2)
        out.append(build_modular_data(dual, m.s_tilde, [t.value for t in m.twists]))
    return out


LIBRARY_16 = space_library(16)
LIBRARY_4 = space_library(4)
NON_POINTED = [ising_data(), product(ising_data(), ising_data())] + [
    product(ising_data(), from_quadratic_space(s)) for s in LIBRARY_4]


def hyperbolic_plane():
    return build_space((2, 2), [0, 0], [[0, F(1, 2)], [F(1, 2), 0]])


def element_index(s):
    els = list(s.elements())
    return els, {e: i for i, e in enumerate(els)}


class TestConstruction:
    def test_trivial_discriminant(self):
        m = from_quadratic_space(trivial_space())
        assert m.n == 1
        assert m.discriminant == 1

    def test_z2_data(self):
        s = build_space((2,), [F(1, 2)])
        m = from_quadratic_space(s)
        assert m.discriminant == 2
        one = CyclotomicNumber.one()
        assert m.s_tilde[0] == (one, one)
        assert m.s_tilde[1][1] == -one
        assert [t.value for t in m.twists] == [F(0), F(1, 4)]

    def test_hyperbolic_twists(self):
        m = from_quadratic_space(hyperbolic_plane())
        assert m.discriminant == 4
        assert sorted(t.value for t in m.twists) == [0, 0, 0, F(1, 2)]

    def test_dual_must_fix_unit(self):
        with pytest.raises(ValidationError):
            build_modular_data((1, 0), [[1, 1], [1, -1]], [0, 0])

    def test_dual_must_be_involution(self):
        with pytest.raises(ValidationError):
            build_modular_data((0, 2, 1, 0), [[1] * 4] * 4, [0] * 4)

    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValidationError, match="symmetric"):
            build_modular_data((0, 1), [[1, 1], [-1, 1]], [0, 0])

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValidationError, match="vanishes"):
            build_modular_data((0, 1), [[1, 0], [0, 1]], [0, 0])

    def test_entries_need_integer_coordinates(self):
        half = CyclotomicNumber.from_rational(F(1, 2))
        with pytest.raises(ValidationError, match="not an algebraic integer"):
            build_modular_data((0, 1), [[1, half], [half, 1]], [0, 0])

    def test_non_integer_discriminant_rejected(self):
        z3 = CyclotomicNumber.from_exponents(3, {1: 1})
        with pytest.raises(ValidationError, match="positive integer"):
            build_modular_data((0,), [[z3]], [0])


class TestRelations:
    def test_pointed_library(self):
        rng = random.Random(16)
        for s in space_library(16):
            for t in (s, basis_change(s, rng)[0]):
                m = from_quadratic_space(t)
                report = verify_relations(m)
                assert report.ok, (t.orders, report)
                twists, dual = oracle_twists_and_dual(t)
                assert [x.value for x in m.twists] == twists, t
                assert list(m.dual) == dual, t

    def test_ising(self):
        assert verify_relations(ising_data()).ok

    def test_product_data(self):
        m = product(from_quadratic_space(build_space((3,), [F(2, 3)])),
                    ising_data())
        assert verify_relations(m).ok

    def test_bad_twists_fail_relation_iii(self):
        # asymmetric twists on Z/3 break theta_{i*} = theta_i
        s = build_space((3,), [F(2, 3)])
        m = from_quadratic_space(s)
        broken = build_modular_data(m.dual, m.s_tilde, [0, F(1, 3), F(2, 3)])
        report = verify_relations(broken)
        assert report.failed == "iii"

    def test_wrong_symmetric_twists_fail_relation_iv(self):
        s = build_space((3,), [F(2, 3)])
        m = from_quadratic_space(s)
        broken = build_modular_data(m.dual, m.s_tilde, [0, F(2, 3), F(2, 3)])
        report = verify_relations(broken)
        assert report.failed == "iv"

    def test_wrong_dual_fails_relation_i(self):
        s = build_space((3,), [F(2, 3)])
        m = from_quadratic_space(s)
        broken = build_modular_data((0, 1, 2), m.s_tilde,
                                    [t.value for t in m.twists])
        report = verify_relations(broken)
        assert report.failed == "i"

    def test_generic_path_agrees_with_fast_path(self):
        # the cyclotomic code is the reference for the term code, on the
        # data of every small space, on data that are not pointed, and on
        # copies with a wrong twist or a wrong dual
        for m in [from_quadratic_space(s) for s in space_library(8)] + NON_POINTED:
            assert verify_cyclotomic(m).ok and verify_relations(m).ok
            assert fusion_cyclotomic(m) == verlinde_fusion(m), m
            for broken in _broken_variants(m):
                assert (verify_cyclotomic(broken).failed
                        == verify_relations(broken).failed
                        is not None)
        for m in NON_POINTED:
            for c in (F(1, 2), F(1), F(3, 2), F(5, 2), F(9, 2), F(13, 2)):
                assert voa_milgram_check(m, c) == milgram_by_cyclotomics(m, c), (m, c)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=12),
           st.randoms(use_true_random=False))
    def test_whole_array_counts_match_their_definition(self, n, order, rng):
        def table(width):
            # entries of 1 to `width` terms, the padding (-1) anywhere
            out = np.full((n, n, width), -1, dtype=np.int64)
            for i in range(n):
                for j in range(n):
                    terms = [rng.randrange(order) for _ in range(rng.randint(1, width))]
                    terms += [-1] * (width - len(terms))
                    rng.shuffle(terms)
                    out[i, j] = terms
            return out

        def terms(x):
            return [e for e in x.tolist() if e >= 0]

        # one term per entry, and entries of 1-3 terms
        for width in (1, 3):
            left, right = table(width), table(width)
            pairs = np.zeros((n, n, order), dtype=np.int64)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for t in terms(left[i, j]):
                            for u in terms(right[j, k]):
                                pairs[i, k, (t + u) % order] += 1
            triples = np.zeros((n, n, order), dtype=np.int64)
            for i in range(n):
                for l in range(n):
                    for j in range(n):
                        for k in range(n):
                            for t in terms(left[i, l]):
                                for u in terms(left[l, j]):
                                    for v in terms(left[j, k]):
                                        triples[i, k, (t + u + v) % order] += 1
            # chunks of one row, of rows that split the last chunk, and whole
            for chunk in (1, 2 * n * n * width * order + 1, 1 << 20):
                with mock.patch.object(relations, "_CHUNK", chunk):
                    assert np.array_equal(relations._pair_counts(left, right, order), pairs)
                    assert np.array_equal(relations._triple_counts(left, order), triples)

    def test_reports_do_not_depend_on_the_chunk(self):
        rng = random.Random(5)
        cases = []
        for s in space_library(8):
            m = from_quadratic_space(basis_change(s, rng)[0])
            twists = [t.value for t in m.twists]
            twists[-1] += F(1, 8)
            cases += [m, build_modular_data(m.dual, m.s_tilde, twists),
                      build_modular_data(tuple(range(m.n)), m.s_tilde,
                                         [t.value for t in m.twists])]
        want = [relations._verify(m) for m in cases]
        with mock.patch.object(relations, "_CHUNK", 1):
            assert [relations._verify(m) for m in cases] == want
        assert {r.failed for r in want} == {None, "i", "iii", "iv"}


class TestFusion:
    def test_group_ring(self):
        for s in space_library(9):
            m = from_quadratic_space(s)
            table = np.array(verlinde_fusion(m).table)
            els, idx = element_index(s)
            n = len(els)
            add = np.array([[idx[s.group.add(x, y)] for y in els] for x in els])
            want = np.zeros((n, n, n), dtype=np.int64)
            want[np.arange(n)[:, None], np.arange(n)[None, :], add] = 1
            assert np.array_equal(table, want), s.orders

    def test_ising_rules(self):
        ft = verlinde_fusion(ising_data())
        assert ft[1, 1] == (1, 0, 0)
        assert ft[1, 2] == (0, 0, 1)
        assert ft[2, 2] == (1, 1, 0)

    def test_unit_and_symmetry_invariants(self):
        for m in (ising_data(),
                  from_quadratic_space(build_space((5,), [F(2, 5)]))):
            ft = verlinde_fusion(m)
            n = ft.n
            for j in range(n):
                for k in range(n):
                    assert ft[0, j][k] == (1 if j == k else 0)
                    for i in range(n):
                        assert ft[i, j][k] == ft[j, i][k]

    def test_associativity(self):
        data = [ising_data(),
                from_quadratic_space(build_space((4,), [F(1, 4)])),
                from_quadratic_space(hyperbolic_plane())]
        for m in data:
            ft = verlinde_fusion(m)
            n = ft.n
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            lhs = sum(ft[i, j][t] * ft[t, k][l]
                                      for t in range(n))
                            rhs = sum(ft[j, k][t] * ft[i, t][l]
                                      for t in range(n))
                            assert lhs == rhs

    def test_product_with_ising_of_48_labels(self):
        # fusion of a product is the Kronecker product of the factors' tables
        a, ising = from_quadratic_space(LIBRARY_16[5]), ising_data()
        m = product(a, ising)
        assert m.n == 48
        start = time.perf_counter()
        assert verify_relations(m).ok
        table = np.array(verlinde_fusion(m).table)
        assert time.perf_counter() - start < 10
        fa, fi = np.array(verlinde_fusion(a).table), np.array(verlinde_fusion(ising).table)
        want = np.einsum("ijk,abc->iajbkc", fa, fi).reshape(48, 48, 48)
        assert np.array_equal(table, want)

    def test_rejects_non_modular_input(self):
        s = build_space((3,), [F(2, 3)])
        m = from_quadratic_space(s)
        broken = build_modular_data(m.dual, m.s_tilde, [0, F(1, 3), F(2, 3)])
        with pytest.raises(ValidationError, match="relations"):
            verlinde_fusion(broken)


class TestGenusDimension:
    def test_sphere_is_one_for_any_data(self):
        for m in (ising_data(), from_quadratic_space(hyperbolic_plane())):
            assert genus_dimension(m, 0) == 1

    def test_abelian_power_law(self):
        for s in space_library(9):
            m = from_quadratic_space(s)
            for g in (0, 1, 2):
                assert genus_dimension(m, g) == s.order ** g

    def test_two_point_sphere_delta(self):
        s = build_space((4,), [F(1, 4)])
        m = from_quadratic_space(s)
        els, idx = element_index(s)
        zero = (0,)
        for x in els:
            for y in els:
                want = 1 if s.group.add(x, y) == zero else 0
                assert genus_dimension(m, 0, (idx[x], idx[y])) == want

    def test_ising_torus_counts_labels(self):
        assert genus_dimension(ising_data(), 1) == 3

    def test_ising_genus_two(self):
        # D * sum d_j^(-2) = 4 * (1 + 1 + 1/2)
        assert genus_dimension(ising_data(), 2) == 10

    def test_generic_path(self):
        m = ising_data()
        assert m.terms.s.shape[2] > 1
        assert genus_dimension(m, 1) == 3
        assert genus_dimension(m, 2) == 10
        # genus 0, 1 and 2 with up to three punctures
        for m in [from_quadratic_space(s) for s in space_library(8)] + NON_POINTED:
            a, b = 1 % m.n, (m.n - 1) // 2
            for power in (2, 0, -2):
                for labels in ([], [a], [a, m.dual[a]], [a, b, m.n - 1]):
                    assert (block_sum_cyclotomic(m, power - len(labels), labels)
                            == Fraction(*_block_sum(m, power - len(labels), labels))), m

    def test_numpy_integers_accepted(self):
        m = from_quadratic_space(discriminant_form(builtin_lattice("D4")))
        one = np.int64(1)
        assert genus_dimension(m, 0, (one, one)) == genus_dimension(m, 0, (1, 1)) == 1
        assert genus_dimension(m, 0, (np.int32(1), np.int32(2))) == 0
        assert genus_dimension(m, one) == genus_dimension(m, 1) == 4
        assert type(genus_dimension(m, np.int64(2))) is int
        with pytest.raises(ValidationError, match="genus"):
            genus_dimension(m, np.bool_(True))
        with pytest.raises(ValidationError, match="puncture label"):
            genus_dimension(m, 0, (np.int64(4),))

    def test_bad_arguments(self):
        for m in (ising_data(), from_quadratic_space(build_space((2,), [F(1, 2)]))):
            with pytest.raises(ValidationError):
                genus_dimension(m, -1)
            with pytest.raises(ValidationError):
                genus_dimension(m, 0, (7,))
            with pytest.raises(ValidationError):
                genus_dimension(m, True)
            with pytest.raises(ValidationError):
                genus_dimension(m, 0, (True, True))


class TestVoaMilgram:
    def test_trivial_charge_sweep(self):
        m = from_quadratic_space(trivial_space())
        got = [c for c in range(33) if voa_milgram_check(m, c)]
        assert got == [0, 8, 16, 24, 32]

    def test_ising_half(self):
        assert voa_milgram_check(ising_data(), F(1, 2))
        assert voa_milgram_check(ising_data(), F(17, 2))
        assert not voa_milgram_check(ising_data(), 1)

    def test_definite_lattices(self):
        for name in ["A1", "A2", "A3", "D4", "D8", "E8", "E8^2", "D16+"]:
            l = builtin_lattice(name)
            m = from_quadratic_space(discriminant_form(l))
            assert voa_milgram_check(m, l.rank), name
            assert not voa_milgram_check(m, l.rank + 4), name

    def test_bool_charge_rejected(self):
        for m in (ising_data(), from_quadratic_space(trivial_space())):
            with pytest.raises(ValidationError):
                voa_milgram_check(m, True)

    def test_numpy_integer_charge(self):
        m = from_quadratic_space(discriminant_form(builtin_lattice("D4")))
        assert voa_milgram_check(m, np.int64(4)) and voa_milgram_check(m, np.uint8(12))
        assert not voa_milgram_check(m, np.int64(0))
        c = as_fraction(np.int64(4))
        assert c == 4 and type(c.numerator) is int

    def test_matches_signature_mod8(self):
        for s in space_library(8):
            m = from_quadratic_space(s)
            sig = signature_mod8(s)
            for c in range(8):
                assert voa_milgram_check(m, c) == (c % 8 == sig), (s.orders, c)


class TestProduct:
    def test_discriminant_multiplies(self):
        m1 = from_quadratic_space(build_space((3,), [F(2, 3)]))
        m2 = ising_data()
        assert product(m1, m2).discriminant == 6 * 2

    def test_product_with_trivial(self):
        m = ising_data()
        p = product(m, from_quadratic_space(trivial_space()))
        assert p.n == m.n
        assert p.s_tilde == m.s_tilde
        assert p.twists == m.twists

    def test_matches_direct_sum(self):
        # orders (2, 4) already form a chain, so the sum keeps coordinates
        s1 = build_space((2,), [F(1, 2)])
        s2 = build_space((4,), [F(1, 4)])
        mp = product(from_quadratic_space(s1), from_quadratic_space(s2))
        ms = from_quadratic_space(direct_sum(s1, s2))
        els1, _ = element_index(s1)
        els2, _ = element_index(s2)
        _, sum_idx = element_index(direct_sum(s1, s2))
        remap = [sum_idx[x + y] for x in els1 for y in els2]
        n = mp.n
        for i in range(n):
            assert mp.twists[i] == ms.twists[remap[i]]
            assert remap[mp.dual[i]] == ms.dual[remap[i]]
            for j in range(n):
                assert mp.s_tilde[i][j] == ms.s_tilde[remap[i]][remap[j]]


class TestExtensions:
    def test_trivial_space_single_report(self):
        reps = simple_current_extensions(trivial_space())
        assert len(reps) == 1
        assert reps[0].quotient.order == 1

    def test_hyperbolic_plane_reports(self):
        reps = simple_current_extensions(hyperbolic_plane())
        assert len(reps) == 3
        assert sorted(r.quotient.order for r in reps) == [1, 1, 4]

    def test_anisotropic_z4(self):
        reps = simple_current_extensions(build_space((4,), [F(1, 4)]))
        assert len(reps) == 1
        assert reps[0].subgroup.order == 1

    @pytest.mark.parametrize("cap", [True, -1])
    def test_cap_must_be_a_nonnegative_integer(self, cap):
        with pytest.raises(ValidationError):
            simple_current_extensions(hyperbolic_plane(), cap=cap)

    def test_quotient_order_invariant(self):
        s = direct_sum(hyperbolic_plane(), build_space((3,), [F(2, 3)]))
        for r in simple_current_extensions(s):
            assert r.quotient.order * r.subgroup.order ** 2 == s.order


class TestVoaGenus:
    def test_equal_and_unequal_charges(self):
        mt = from_quadratic_space(trivial_space())
        g16 = VoaGenusSymbol(mt, F(16))
        assert voa_genus_equal(g16, VoaGenusSymbol(mt, F(16)))
        assert not voa_genus_equal(g16, VoaGenusSymbol(mt, F(8)))

    def test_ising_vs_pointed(self):
        gi = VoaGenusSymbol(ising_data(), F(1, 2))
        mt = from_quadratic_space(trivial_space())
        assert not voa_genus_equal(gi, VoaGenusSymbol(mt, F(16)))

    def test_rescaled_generator_is_equal(self):
        ga = VoaGenusSymbol(from_quadratic_space(build_space((5,), [F(2, 5)])),
                            F(8))
        gb = VoaGenusSymbol(from_quadratic_space(build_space((5,), [F(8, 5)])),
                            F(8))
        assert voa_genus_equal(ga, gb)

    def test_data_with_self_dual_labels_equal_themselves(self):
        # Ising's labels are all self-dual, and so is 2 in Z/4; Z/2 x Z/4
        # has self-dual labels among pairs that are not
        for m, c in ((ising_data(), F(1, 2)),
                     (from_quadratic_space(build_space((4,), [F(1, 4)])), F(1)),
                     (from_quadratic_space(build_space((2, 4), [F(1, 2), F(1, 4)])), F(2))):
            g = VoaGenusSymbol(m, c)
            assert voa_genus_equal(g, VoaGenusSymbol(m, c)), m

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(LIBRARY_16), st.randoms(use_true_random=False))
    def test_basis_change_is_genus_equal(self, s, rng):
        t, _ = basis_change(s, rng)
        sig = signature_mod8(s)
        assert voa_genus_equal(VoaGenusSymbol(from_quadratic_space(s), sig),
                               VoaGenusSymbol(from_quadratic_space(t), sig))

    def test_same_order_different_twists(self):
        s9 = build_space((9,), [F(2, 9)])
        s33 = direct_sum(build_space((3,), [F(2, 3)]),
                         build_space((3,), [F(4, 3)]))
        g9 = VoaGenusSymbol(from_quadratic_space(s9), F(8))
        g33 = VoaGenusSymbol(from_quadratic_space(s33), F(8))
        assert not voa_genus_equal(g9, g33)

    def test_incompatible_charge_rejected(self):
        mt = from_quadratic_space(trivial_space())
        with pytest.raises(ValidationError, match="central charge"):
            VoaGenusSymbol(mt, F(4))

    def test_cap(self):
        s = build_space((17,), [F(2, 17)])
        g = VoaGenusSymbol(from_quadratic_space(s), F(8))
        with pytest.raises(LimitError):
            voa_genus_equal(g, g, cap=16)

    @pytest.mark.parametrize("cap", [-1, True])
    def test_cap_must_be_a_nonnegative_integer(self, cap):
        g = VoaGenusSymbol(from_quadratic_space(trivial_space()), F(8))
        with pytest.raises(ValidationError, match="nonnegative integer"):
            voa_genus_equal(g, g, cap=cap)


class TestJson:
    def test_round_trip_ising(self):
        m = ising_data()
        doc = modular_data_to_json(m)
        back = modular_data_from_json(doc)
        assert back.dual == m.dual
        assert back.twists == m.twists
        assert all(back.s_tilde[i][j] == m.s_tilde[i][j]
                   for i in range(3) for j in range(3))
        assert verify_relations(back).ok

    @pytest.mark.parametrize("entry", [
        {"order": 4, "coeffs": "12"},
        {"order": 4, "coeffs": {"1": 0, "2": 0}},
        {"order": True, "coeffs": ["1"]},
        {"order": "4", "coeffs": ["1", "2"]},
        {"order": 4, "coeffs": ["1", 0.5]},
    ])
    def test_cyclotomic_entry_must_be_an_order_and_a_list(self, entry):
        doc = modular_data_to_json(ising_data())
        doc["s_tilde"][0][0] = entry
        with pytest.raises(ValidationError):
            modular_data_from_json(doc)

    def test_round_trip_pointed(self):
        m = from_quadratic_space(build_space((4,), [F(1, 4)]))
        back = modular_data_from_json(modular_data_to_json(m))
        assert back.discriminant == 4
        assert verify_relations(back).ok

    def test_round_trip_keeps_json_and_exponents(self):
        # the terms read off each entry's own field agree with the entries
        # embedded in the common field and looked up there: one term per
        # entry exactly when every entry is a root of unity
        lib = space_library(16)
        data = [from_quadratic_space(s) for s in lib] + [
            ising_data(), product(from_quadratic_space(lib[3]), from_quadratic_space(lib[7]))]
        for m in data:
            doc = json.dumps(modular_data_to_json(m))
            back = modular_data_from_json(json.loads(doc))
            assert json.dumps(modular_data_to_json(back)) == doc
            want = exponents_by_embedding(back.s_tilde, back.twists)
            order, s, tau = back.terms
            if want is None:
                assert s.shape[2] > 1
            else:
                scale = order // want[0]
                assert order == lcm(2, want[0]) and s.shape[2] == 1
                assert s[:, :, 0].tolist() == (want[1] * scale).tolist()
                assert tau.tolist() == (want[2] * scale).tolist()

    def test_twist_weight_mismatch_rejected(self):
        m = build_modular_data((0, 1), [[1, 1], [1, -1]], [0, F(1, 4)])
        doc = modular_data_to_json(m)
        doc["weights"] = ["0", "3/4"]
        with pytest.raises(ValidationError, match="twist and weight of label 1 differ mod 1"):
            modular_data_from_json(doc)
        # weights are conformal weights: they agree with the twists mod 1
        doc["weights"] = ["2", "5/4"]
        assert modular_data_from_json(doc) == m

    def test_weights_are_the_twists_in_json(self):
        lib = space_library(16)
        data = [from_quadratic_space(s) for s in lib] + [
            ising_data(), product(from_quadratic_space(lib[5]), ising_data())]
        for m in data:
            doc = modular_data_to_json(m)
            assert doc["weights"] == doc["twists"], m
            text = json.dumps(doc)
            assert json.dumps(modular_data_to_json(modular_data_from_json(doc))) == text, m
            short = json.loads(text)
            short["weights"].pop()
            with pytest.raises(ValidationError,
                               match="twists and weights must match the labels"):
                modular_data_from_json(short)

    @pytest.mark.parametrize("key,value", [
        ("weights", None), ("weights", 5), ("twists", 5), ("twists", "012")])
    def test_twists_and_weights_must_be_lists(self, key, value):
        doc = modular_data_to_json(ising_data())
        doc[key] = value
        with pytest.raises(ValidationError, match="must match the labels"):
            modular_data_from_json(doc)

    def test_missing_key_rejected(self):
        doc = modular_data_to_json(ising_data())
        del doc["dual"]
        with pytest.raises(ValidationError, match="dual"):
            modular_data_from_json(doc)

    def test_float_entries_rejected(self):
        doc = modular_data_to_json(from_quadratic_space(trivial_space()))
        doc["s_tilde"] = [[1.0]]
        with pytest.raises(ValidationError, match="exact"):
            modular_data_from_json(doc)


def _entries(matrix):
    return [[(x.order, x.coeffs) for x in row] for row in matrix]


def _assert_matches_oracle(m, s):
    """Fusion, signature, Milgram, s_tilde and JSON of the data m of the
    space s, against the code the exponent tables replaced."""
    sig = signature_mod8(s)
    assert sig == signature_by_cyclotomics(s), s
    assert verlinde_fusion(m) == fusion_by_counts(m), s
    for c in (sig, sig + 4, sig + 2, sig + F(1, 2)):
        assert voa_milgram_check(m, c) == milgram_by_cyclotomics(m, c), (s, c)
    eager = eager_s_tilde(m)
    assert _entries(m.s_tilde) == _entries(eager), s
    given_matrix = build_modular_data(m.dual, eager, [t.value for t in m.twists])
    assert (json.dumps(modular_data_to_json(m))
            == json.dumps(modular_data_to_json(given_matrix))), s


class TestExponentTablesAgainstOracle:
    """Row-lookup fusion, Gauss phases from integer counts and the lazy
    s_tilde against the counting and cyclotomic code they replaced."""

    def test_every_library_space(self):
        for s in LIBRARY_16:
            _assert_matches_oracle(from_quadratic_space(s), s)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(LIBRARY_16), st.randoms(use_true_random=False))
    def test_automorphism_twists(self, s, rng):
        t, _ = basis_change(s, rng)
        _assert_matches_oracle(from_quadratic_space(t), t)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(LIBRARY_4), st.sampled_from(LIBRARY_4))
    def test_product_data(self, s1, s2):
        m = product(from_quadratic_space(s1), from_quadratic_space(s2))
        assert m.terms.s.shape[2] == 1
        assert verlinde_fusion(m) == fusion_by_counts(m)
        sig = signature_mod8(s1) + signature_mod8(s2)
        for c in (sig, sig + 4, sig + 2, sig + F(1, 2)):
            assert voa_milgram_check(m, c) == milgram_by_cyclotomics(m, c), c
        with_ising = product(m, ising_data())
        assert with_ising.terms.s.shape[2] > 1
        for c in (sig + F(1, 2), sig + F(9, 2), sig + 1):
            assert (voa_milgram_check(with_ising, c)
                    == milgram_by_cyclotomics(with_ising, c)), c
        back = modular_data_from_json(modular_data_to_json(m))
        assert json.dumps(modular_data_to_json(back)) == json.dumps(modular_data_to_json(m))
        assert verlinde_fusion(back) == fusion_by_counts(m)

    def test_pointed_path_builds_no_cyclotomic_number(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("a CyclotomicNumber was built")

        spaces = LIBRARY_16[::10]
        monkeypatch.setattr(CyclotomicNumber, "__init__", refuse)
        for s in spaces:
            m = from_quadratic_space(s)
            sig = signature_mod8(s)
            assert verify_relations(m).ok
            verlinde_fusion(m)
            assert genus_dimension(m, 1) == m.n
            assert voa_milgram_check(m, sig) and not voa_milgram_check(m, sig + 4)

    def test_no_matching_row(self):
        # A symmetric complex Hadamard matrix on zeta_8 that is no
        # character table: relation (i) fails, and the row of
        # E[1] + E[1] - E[0] = (0, 2, 0, 2) is missing.
        z = CyclotomicNumber.from_exponents(8, {1: 1})
        one = CyclotomicNumber.one()
        h = [[one, one, one, one], [one, z, -one, -z],
             [one, -one, one, -one], [one, -z, -one, z]]
        m = build_modular_data((0, 1, 2, 3), h, [0, 0, 0, 0])
        assert m.terms.order == 8 and m.terms.s.shape[2] == 1 and m.discriminant == m.n
        assert verify_relations(m).failed == "i"
        with pytest.raises(NonIntegralError, match=r"N\[1\]\[1\]"):
            _fusion_rows(m)
        with pytest.raises(NonIntegralError):
            fusion_by_counts(m)

    def test_debug_log_names_the_path(self, caplog):
        m = from_quadratic_space(build_space((4,), [F(1, 4)]))
        for logger in (fusion, voa, decompose):
            caplog.set_level(logging.DEBUG, logger=logger.__name__)
        verlinde_fusion(m)
        verlinde_fusion(ising_data())
        voa_milgram_check(m, 1)
        signature_mod8(build_space((4,), [F(1, 4)]))
        lines = [r.getMessage() for r in caplog.records]
        assert "row lookup" in lines[0]
        assert "Verlinde sum over terms" in lines[1]
        assert "integer square test and one certified interval, phase 1/8" in lines[2]
        assert caplog.records[3].name == decompose.__name__
        assert "Jordan splitting, blocks per prime {2: 1}" in lines[3]
        assert "interval" not in lines[3]


class TestOneTwistEncoding:
    """Each twist is stored once, as an integer numerator over the order of
    the term table; phases mod 1 are only a view of it."""

    def test_fields_are_the_dual_and_the_table(self):
        assert [f.name for f in dataclasses.fields(ModularData)] == ["dual", "terms"]

    def test_no_library_path_builds_a_phase(self, monkeypatch):
        def refuse(self, *args):
            raise AssertionError("a phase object was built")

        monkeypatch.setattr(_Phase, "__init__", refuse)
        ising = ising_data()
        data = [(from_quadratic_space(s), s, signature_mod8(s)) for s in LIBRARY_16]
        data += [(ising, None, F(1, 2)), (product(ising, ising), None, F(1))]
        data += [(product(ising, from_quadratic_space(s)), None, F(1, 2) + signature_mod8(s))
                 for s in LIBRARY_4]
        for m, s, c in data:
            if s is not None:
                qs_doc = space_to_json(s)
                assert repr(s).startswith("FiniteQuadraticSpace(")
                assert space_from_json(qs_doc) == s
            doc = modular_data_to_json(m)
            back = modular_data_from_json(json.loads(json.dumps(doc)))
            assert back == m and modular_data_to_json(back) == doc
            assert build_modular_data(m.dual, m.s_tilde, doc["twists"]) == m
            assert verify_relations(m).ok
            verlinde_fusion(m)
            assert genus_dimension(m, 0) == 1
            assert voa_milgram_check(m, c) and not voa_milgram_check(m, c + 4)
        assert voa_genus_equal(VoaGenusSymbol(ising, F(1, 2)), VoaGenusSymbol(ising, F(1, 2)))

    @pytest.mark.parametrize("twists, match", [
        (np.array([0.0, 8.0, 1.0]), "integer arrays"),
        (np.array([0, 8], dtype=np.int64), "per label"),
        (np.array([[0, 8, 1]], dtype=np.int64), "per label"),
        (np.array([0, 8, 16], dtype=np.int64), r"in \[0, order\)"),
        (np.array([0, -8, 1], dtype=np.int64), r"in \[0, order\)")])
    def test_table_twists_are_integers_in_range(self, twists, match):
        order, s, _ = ising_data().terms
        with pytest.raises(ValidationError, match=match):
            ModularData((0, 1, 2), Terms(order, s, twists))

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(LIBRARY_4), st.sampled_from(LIBRARY_4), st.booleans())
    def test_twists_view_reads_the_table(self, s1, s2, with_ising):
        m = product(from_quadratic_space(s1), from_quadratic_space(s2))
        if with_ising:
            m = product(m, ising_data())
        order, _, tau = m.terms
        assert [t.value for t in m.twists] == [F(t, order) for t in tau.tolist()]
        assert modular_data_to_json(m)["twists"] == [str(F(t, order)) for t in tau.tolist()]


def _outcome(f, *args):
    """f(*args), or the type and text of the library error it raised."""
    try:
        return f(*args)
    except (NonIntegralError, ValidationError) as exc:
        return type(exc), str(exc)


def _genus_cases(m):
    """(g, punctures) for g = 0..3, with and without punctures."""
    a, b = 1 % m.n, (m.n - 1) // 2
    return [(g, labels) for g in range(4)
            for labels in ((), (a,), (a, m.dual[a]), (a, b, m.n - 1))]


def _assert_genus_dimensions_match(m):
    for g, labels in _genus_cases(m):
        assert (_outcome(genus_dimension, m, g, labels)
                == _outcome(modcat_oracle.genus_dimension, m, g, labels)), (m, g, labels)


def _turned(order, counts, norm, shift, sign, scale, widen):
    """sign scale zeta_order^shift G over zeta_(widen order), with the norm
    that keeps it sqrt(norm) times a root of unity when G was one."""
    out = [0] * (order * widen)
    for e, k in enumerate(counts):
        out[(e + shift) % order * widen] = sign * scale * int(k)
    return order * widen, out, norm * scale * scale


class TestIntegerPhaseAgainstFractionOracle:
    """The integer Milgram phase and genus dimension against the `Fraction`
    routes they replaced (`modcat_oracle`)."""

    def test_every_space_of_order_32(self):
        charges = [F(c) for c in range(16)] + [c + F(1, 2) for c in range(16)]
        for s in space_library(32):
            m = from_quadratic_space(s)
            for c in charges:
                assert (voa_milgram_check(m, c)
                        == modcat_oracle.voa_milgram_check(m, c)), (s, c)
            _assert_genus_dimensions_match(m)

    def test_ising_and_its_products(self):
        data = [ising_data(), product(ising_data(), ising_data())] + [
            product(ising_data(), from_quadratic_space(s)) for s in LIBRARY_4[1:4]]
        for m in data:
            assert m.terms.s.shape[2] > 1
            for c in range(128):
                c = F(c, 16)
                assert (voa_milgram_check(m, c)
                        == modcat_oracle.voa_milgram_check(m, c)), (m, c)
            _assert_genus_dimensions_match(m)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(-3, 3), min_size=n, max_size=n),
        st.integers(1, 20))))
    def test_random_count_vectors(self, case):
        self.check(*case)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(LIBRARY_16 + NON_POINTED), st.integers(0, 63),
           st.sampled_from((1, -1)), st.integers(1, 3), st.integers(1, 3),
           st.booleans())
    def test_turned_gauss_sums(self, source, shift, sign, scale, widen, perturb):
        if isinstance(source, ModularData):
            order, counts, norm = source.terms.order, source.gauss_counts, source.discriminant
        else:
            (order, counts), norm = _phase_counts(source), source.order
        order, counts, norm = _turned(order, counts, norm, shift, sign, scale, widen)
        if perturb:  # G + 1 or a norm one too large: not sqrt(norm) times a root
            counts[0] += 1
        assert self.check(order, counts, norm) is not None or perturb

    @staticmethod
    def check(order, counts, norm):
        got = gauss_phase(order, counts, norm)
        want = modcat_oracle.gauss_phase(order, counts, norm)
        assert got is None or 0 <= got < 4 * order
        assert (None if got is None else F(got, 4 * order)) == want, (order, counts, norm)
        return got

    def test_milgram_builds_no_fraction_or_interval(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction or ComplexInterval was built")

        data = [(from_quadratic_space(s), signature_mod8(s)) for s in LIBRARY_16]
        data.append((ising_data(), F(1, 2)))
        cases = [(m, c) for m, sig in data for c in (sig, sig + 4, sig + 1, sig + F(1, 2))]
        want = [modcat_oracle.voa_milgram_check(m, c) for m, c in cases]
        monkeypatch.setattr(cyclotomic, "Fraction", refuse)
        monkeypatch.setattr(cyclotomic, "ComplexInterval", refuse)
        assert [voa_milgram_check(m, c) for m, c in cases] == want
        assert sum(want) == len(data)  # c = sig only

