"""Modular data, relations, fusion, genus dimensions, and VOA checks."""

import random
from fractions import Fraction

import numpy as np
import pytest

from genusforge.errors import LimitError, ValidationError
from genusforge.exactkernel import CyclotomicNumber
from genusforge.lattice import builtin_lattice, discriminant_form
from genusforge.modcat import (
    VoaGenusSymbol,
    build_modular_data,
    from_quadratic_space,
    genus_dimension,
    ising_data,
    modular_data_from_json,
    modular_data_to_json,
    product,
    simple_current_extensions,
    verify_relations,
    verlinde_fusion,
    voa_genus_equal,
    voa_milgram_check,
)
from genusforge.modcat.fusion import (
    _block_sum_cyclotomic,
    _block_sum_exponents,
    _fusion_cyclotomic,
)
from genusforge.modcat.relations import _verify_cyclotomic, _verify_exponents
from genusforge.quadspace import (
    build_space,
    direct_sum,
    signature_mod8,
    trivial_space,
)
from space_library import space_library
from space_oracle import basis_change, oracle_twists_and_dual

F = Fraction


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

    def test_twist_weight_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="differ"):
            build_modular_data((0, 1), [[1, 1], [1, -1]], [0, F(1, 4)],
                               weights=[0, F(3, 4)])

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
        # the cyclotomic code is the reference for the exponent code, on
        # the data of every small space and on a copy with a wrong twist
        for s in space_library(8):
            m = from_quadratic_space(s)
            assert _verify_cyclotomic(m).ok and _verify_exponents(m).ok
            assert _fusion_cyclotomic(m) == verlinde_fusion(m), s
            if m.n > 1:
                twists = [t.value for t in m.twists]
                twists[1] += F(1, 8)
                broken = build_modular_data(m.dual, m.s_tilde, twists)
                assert (_verify_cyclotomic(broken).failed
                        == _verify_exponents(broken).failed
                        is not None)


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
        assert m.exponents is None
        assert genus_dimension(m, 1) == 3
        assert genus_dimension(m, 2) == 10
        for s in space_library(8):
            m = from_quadratic_space(s)
            for power in (2, 0, -2):
                for labels in ([], [1 % m.n], [1 % m.n, m.dual[1 % m.n]]):
                    assert (_block_sum_cyclotomic(m, power - len(labels), labels)
                            == _block_sum_exponents(m, power - len(labels), labels)), s

    def test_bad_arguments(self):
        m = ising_data()
        with pytest.raises(ValidationError):
            genus_dimension(m, -1)
        with pytest.raises(ValidationError):
            genus_dimension(m, 0, (7,))


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
        assert reps[0].multiplicity == 1
        assert reps[0].exists_and_unique
        assert reps[0].quotient.order == 1

    def test_hyperbolic_plane_reports(self):
        reps = simple_current_extensions(hyperbolic_plane())
        assert len(reps) == 3
        assert sorted(r.quotient.order for r in reps) == [1, 1, 4]

    def test_anisotropic_z4(self):
        reps = simple_current_extensions(build_space((4,), [F(1, 4)]))
        assert len(reps) == 1
        assert reps[0].subgroup.order == 1

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

    def test_round_trip_pointed(self):
        m = from_quadratic_space(build_space((4,), [F(1, 4)]))
        back = modular_data_from_json(modular_data_to_json(m))
        assert back.discriminant == 4
        assert verify_relations(back).ok

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
