"""Modular data, relations, fusion, genus dimensions, and VOA checks."""

import json
import logging
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusforge.errors import LimitError, NonIntegralError, ValidationError
from genusforge.exactkernel import CyclotomicNumber
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
from genusforge.modcat.fusion import (
    _block_sum_cyclotomic,
    _block_sum_exponents,
    _fusion_cyclotomic,
    _fusion_rows,
)
from genusforge.modcat import relations
from genusforge.modcat.relations import _verify_cyclotomic, _verify_exponents
from genusforge.quadspace import (
    build_space,
    direct_sum,
    gauss,
    signature_mod8,
    trivial_space,
)
from modcat_oracle import (
    eager_s_tilde,
    exponents_by_embedding,
    fusion_by_counts,
    milgram_by_cyclotomics,
    signature_by_cyclotomics,
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


    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=12),
           st.randoms(use_true_random=False))
    def test_whole_array_counts_match_their_definition(self, n, order, rng):
        left, right = (np.array([[rng.randrange(order) for _ in range(n)]
                                 for _ in range(n)], dtype=np.int64) for _ in range(2))
        pairs = np.zeros((n, n, order), dtype=np.int64)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    pairs[i, k, (left[i, j] + right[j, k]) % order] += 1
        triples = np.zeros((n, n, order), dtype=np.int64)
        for i in range(n):
            for l in range(n):
                for j in range(n):
                    for k in range(n):
                        triples[i, k, (left[i, l] + left[l, j] + left[j, k]) % order] += 1
        # chunks of one row, of rows that split the last chunk, and whole
        for chunk in (1, 2 * n * n * order + 1, 1 << 20):
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
        want = [_verify_exponents(m) for m in cases]
        with mock.patch.object(relations, "_CHUNK", 1):
            assert [_verify_exponents(m) for m in cases] == want
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

    def test_round_trip_keeps_json_and_exponents(self):
        # the exponents read off each entry's own field agree with the
        # entries embedded in the common field and looked up there
        lib = space_library(16)
        data = [from_quadratic_space(s) for s in lib] + [
            ising_data(), product(from_quadratic_space(lib[3]), from_quadratic_space(lib[7]))]
        for m in data:
            doc = json.dumps(modular_data_to_json(m))
            back = modular_data_from_json(json.loads(doc))
            assert json.dumps(modular_data_to_json(back)) == doc
            want = exponents_by_embedding(back.matrix, back.twists)
            if want is None:
                assert back.exponents is None
            else:
                assert [back.exponents[0]] + [a.tolist() for a in back.exponents[1:]] == (
                    [want[0]] + [a.tolist() for a in want[1:]])

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
    given_matrix = ModularData(m.dual, eager, m.twists, m.weights)
    assert (json.dumps(modular_data_to_json(m))
            == json.dumps(modular_data_to_json(given_matrix))), s


LIBRARY_16 = space_library(16)
LIBRARY_4 = space_library(4)


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
        assert m.exponents is not None
        assert verlinde_fusion(m) == fusion_by_counts(m)
        sig = signature_mod8(s1) + signature_mod8(s2)
        for c in (sig, sig + 4, sig + 2, sig + F(1, 2)):
            assert voa_milgram_check(m, c) == milgram_by_cyclotomics(m, c), c
        with_ising = product(m, ising_data())
        assert with_ising.exponents is None
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
        assert m.exponents.order == 8 and m.discriminant == m.n
        assert verify_relations(m).failed == "i"
        with pytest.raises(NonIntegralError, match=r"N\[1\]\[1\]"):
            _fusion_rows(m)
        with pytest.raises(NonIntegralError):
            fusion_by_counts(m)

    def test_debug_log_names_the_path(self, caplog):
        m = from_quadratic_space(build_space((4,), [F(1, 4)]))
        for logger in (fusion, voa, gauss):
            caplog.set_level(logging.DEBUG, logger=logger.__name__)
        verlinde_fusion(m)
        verlinde_fusion(ising_data())
        voa_milgram_check(m, 1, bits=64)
        voa_milgram_check(m, 2)
        signature_mod8(build_space((4,), [F(1, 4)]))
        lines = [r.getMessage() for r in caplog.records]
        assert "row lookup" in lines[0]
        assert "cyclotomic" in lines[1]
        assert "interval at 64 bits, phase 1/8" in lines[2]
        assert "interval at 128 bits, phase 1/8" in lines[3]
        assert "interval at 128 bits" in lines[4]
