"""Binary code operations, sigma counts, and lexicodes."""

import json
import logging
import random
from functools import cache
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genusforge.codes import (
    BinaryCode,
    FramedPair,
    build_code,
    check_framed_conditions,
    code_from_json,
    code_to_json,
    contains_allones,
    dual_code,
    is_even,
    lexicode,
    relative_mass_rhs,
    rref,
    sigma_k,
    sigma_profile,
    weight_enumerator,
    weights_divisible_by_8,
)
from importlib import import_module

from code_oracles import (
    _tables,
    extension_count,
    gl_stabilizer_order,
    greedy_scan,
    naive_sigma,
    support_stabilizer_order,
    sweep_sigma,
)

lexicode_module = import_module("genusforge.codes.lexicode")
sigma_module = import_module("genusforge.codes.sigma")
from genusforge.errors import LimitError, ValidationError


def random_code(rng, length, rows):
    return build_code(length, [rng.getrandbits(length) for _ in range(rows)])


class TestBinaryCode:
    def test_rref_is_generating_set_independent(self):
        a = build_code(6, [0b110110, 0b011011, 0b101101])
        b = build_code(6, [0b101101, 0b110110 ^ 0b101101, 0b011011])
        assert a == b

    def test_dim_and_membership(self):
        c = build_code(4, [0b1111, 0b0101])
        assert c.dim == 2
        assert sorted(c.words()) == [0, 0b0101, 0b1010, 0b1111]
        assert 0b1010 in c and 0b0001 not in c

    def test_dual_is_involution(self):
        rng = random.Random(7)
        for length in (3, 8, 13, 20):
            for _ in range(5):
                c = random_code(rng, length, rng.randrange(length + 1))
                d = dual_code(c)
                assert d.dim == length - c.dim
                for x in c.basis:
                    for y in d.basis:
                        assert (x & y).bit_count() % 2 == 0
                assert dual_code(d) == c

    def test_dual_of_even_weight_code_is_repetition(self):
        even = build_code(16, [0b11 << i for i in range(15)])
        d = dual_code(even)
        assert sorted(d.words()) == [0, (1 << 16) - 1]
        assert weight_enumerator(d) == [1] + [0] * 15 + [1]

    def test_weight_enumerator_total_and_macwilliams(self):
        rng = random.Random(3)
        for _ in range(8):
            c = random_code(rng, 12, rng.randrange(13))
            w = weight_enumerator(c)
            assert sum(w) == 2 ** c.dim
            # recompute by brute force; exercises the MacWilliams branch
            # whenever dim > length/2
            brute = [0] * 13
            for word in c.words():
                brute[word.bit_count()] += 1
            assert w == brute

    def test_allones_and_evenness(self):
        assert contains_allones(build_code(3, [0b111]))
        assert not contains_allones(build_code(3, [0b011]))
        assert is_even(build_code(4, [0b0011, 0b1111]))
        assert not is_even(build_code(4, [0b0111]))

    def test_divisible_by_8_matches_enumeration(self):
        rng = random.Random(11)
        seen_true = 0
        for _ in range(40):
            c = random_code(rng, 16, rng.randrange(5))
            brute = all(w.bit_count() % 8 == 0 for w in c.words())
            assert weights_divisible_by_8(c) == brute
            seen_true += brute
        assert seen_true  # at least the zero code shows up
        d = build_code(16, [(1 << 16) - 1, 0b11111111])
        assert weights_divisible_by_8(d)

    def test_json_round_trip_and_convention(self):
        c = build_code(5, [0b00001, 0b11000])
        doc = code_to_json(c)
        # first character of a bitstring is coordinate 0
        assert doc["basis"][0] == "10000"
        assert code_from_json(json.loads(json.dumps(doc))) == c

    def test_json_rejects_bad_documents(self):
        with pytest.raises(ValidationError):
            code_from_json({"length": 4})
        with pytest.raises(ValidationError):
            code_from_json({"length": 4, "basis": ["01"]})
        with pytest.raises(ValidationError):
            code_from_json({"length": 4, "basis": ["012x"]})

    def test_row_exceeding_length_rejected(self):
        with pytest.raises(ValidationError):
            build_code(3, [0b1000])

    def test_rref_idempotent(self):
        c = build_code(7, [0b1010101, 0b0110011])
        assert rref(c) == c


class TestFramed:
    def test_even_code_with_repetition_dual_passes_self_dual(self):
        c = build_code(16, [0b11 << i for i in range(15)])
        pair = FramedPair(c, dual_code(c))
        report = check_framed_conditions(pair, self_dual=True)
        assert report.ok
        assert dict(report.conditions)["d_equals_c_dual"]

    def test_length_8_fails_the_self_dual_length_condition(self):
        c = lexicode(8, 4)  # self-dual [8,4,4]
        report = check_framed_conditions(FramedPair(c, dual_code(c)),
                                         self_dual=True)
        d = report.as_dict()
        assert d["d_subset_c_dual"] and d["c_even"]
        assert not d["length_multiple_of_16"]
        assert not d["d_weights_multiple_of_8"]
        assert not report.ok

    def test_non_orthogonal_pair_fails(self):
        c = build_code(4, [0b0011])
        d = build_code(4, [0b0001])  # odd overlap with the generator of c
        report = check_framed_conditions(FramedPair(c, d))
        assert not report.as_dict()["d_subset_c_dual"]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            FramedPair(build_code(4, []), build_code(5, []))


class TestSigma:
    def test_known_values(self):
        assert sigma_k(16, 1) == 1
        assert sigma_k(8, 2) == 0
        assert sigma_k(16, 2) == 6435  # C(15, 8) weight-8 cosets

    def test_profile_of_length_8_exhausts_immediately(self):
        p = sigma_profile(8)
        assert p.complete
        assert p.counts[:2] == ((1, 1), (2, 0))
        assert p.sigma(5) == 0

    def test_non_multiples_of_8_vanish(self):
        for r in (4, 12, 15):
            p = sigma_profile(r)
            assert p.counts == ((1, 0),) and p.complete
            assert sigma_k(r, 3) == 0

    def test_against_naive_span_enumeration(self):
        for r in (4, 8, 12):
            for k in (1, 2, 3):
                assert sigma_k(r, k) == naive_sigma(r, k), (r, k)
        assert sigma_k(16, 1) == naive_sigma(16, 1)
        assert sigma_k(16, 2) == naive_sigma(16, 2)

    def test_dim3_count_against_naive_span_enumeration(self):
        # nonzero cross-check through a path with no quotient reduction
        assert sigma_k(16, 3) == naive_sigma(16, 3) == 2627625

    def test_dim2_count_against_quotient_pair_scan(self):
        # independent of the canonical-basis walk: count unordered pairs
        # {a, b} of candidates with a ^ b again a candidate; each plane
        # holds 3 such pairs
        cands, memb, _ = _tables(16)
        total = 0
        for i in range(len(cands)):
            total += int(np.count_nonzero(memb[cands[i + 1:] ^ int(cands[i])]))
        assert total % 3 == 0
        assert sigma_k(16, 3) == total // 3

    def test_counted_codes_are_self_orthogonal(self):
        # 8-divisible implies doubly-even implies self-orthogonal; spot
        # check on lifted candidate pairs
        cands, memb, _ = _tables(16)
        allones = (1 << 16) - 1
        rng = random.Random(5)
        found = 0
        while found < 25:
            a, b = int(rng.choice(cands)), int(rng.choice(cands))
            if a == b or not memb[a ^ b]:
                continue
            code = build_code(16, [allones, a, b])
            assert code.dim == 3
            for x in code.basis:
                for y in code.basis:
                    assert (x & y).bit_count() % 2 == 0
            found += 1

    def test_budget_gives_deterministic_partial_counts(self):
        p = sigma_profile(16, max_k=4, node_budget=50)
        assert not p.complete
        assert p.sigma(1) == 1 and p.sigma(2) == 6435
        assert 0 < p.sigma(4) < 60810750
        assert p == sigma_profile(16, max_k=4, node_budget=50)
        with pytest.raises(LimitError):
            p.sigma(5)  # beyond the computed range of a partial profile

    def test_worker_split_matches_serial(self):
        ser = sigma_profile(16, max_k=3)
        par = sigma_profile(16, max_k=3, threads=2)
        assert ser.counts == par.counts and par.complete

    def test_caps_and_validation(self):
        with pytest.raises(LimitError):
            sigma_k(32, 1)
        assert sigma_k(32, 1, cap=None) == 1
        with pytest.raises(ValidationError):
            sigma_k(16, 0)
        with pytest.raises(ValidationError):
            sigma_profile(-8)
        with pytest.raises(ValidationError):
            relative_mass_rhs(8)
        with pytest.raises(LimitError):
            relative_mass_rhs(32)


@cache
def code_classes(r, levels):
    """(level, canonical table, |Aut|) of every class through level `levels`."""
    walk = sigma_module._Walk(r, levels, None)
    walk.expand(1, *walk.root)
    return [(k, table, aut) for k in range(1, levels + 1)
            for table, aut, _ in walk.classes[k].values()]


def random_gl(rnd, k):
    """g in GL(k, 2) as the array of images g[x] of every x in F_2^k."""
    images = [0]
    while len(set(images)) < 1 << k:
        images = [0]
        for y in [rnd.randrange(1, 1 << k) for _ in range(k)]:
            images += [s ^ y for s in images]
    return np.array(images)


class TestSigmaOrbits:
    def test_matches_the_subspace_search(self):
        for r in range(1, 17):
            for k in (1, 2, 3):
                assert sigma_k(r, k) == sweep_sigma(r, k), (r, k)
        for k in (1, 2):
            assert sigma_k(24, k) == sweep_sigma(24, k)

    def test_full_profile_of_length_16(self):
        p = sigma_profile(16)
        assert p.complete
        assert [v for _, v in p.counts] == [1, 6435, 2627625, 60810750, 64864800, 0]

    def test_sigma3_of_length_24_against_a_word_scan(self):
        # one class of 2-dimensional codes: 1 and an octad, C(24, 8) codes;
        # each 3-dimensional code holds 3 of them, each met by 4 words
        ones, octad = (1 << 24) - 1, 0xFF
        ext = extension_count(24, [0, ones, octad, ones ^ octad])
        assert ext == 280540
        assert sigma_k(24, 3) == comb(24, 8) * ext // 12 == 17194086195

    def test_full_profile_of_length_24(self):
        p = sigma_profile(24)
        assert p.complete and p.counts[-1] == (7, 0)
        assert p.sigma(2) == comb(24, 8) and p.sigma(3) == 17194086195

    def test_stabilizers_against_all_of_gl(self):
        for r in (8, 16, 24):
            for k, table, aut in code_classes(r, 4):
                stab = gl_stabilizer_order(table.astype(np.int64), k)
                assert aut == prod(factorial(int(v)) for v in table) * stab, (r, k)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(code_classes(24, 5)), st.randoms(use_true_random=False))
    def test_canonical_form_ignores_coordinates_and_basis(self, cls, rnd):
        # the code's columns, permuted, then mapped by a random basis change
        k, table, aut = cls
        columns = np.repeat(np.arange(1 << k), table)
        rnd.shuffle(columns)
        moved = np.bincount(random_gl(rnd, k)[columns], minlength=1 << k).astype(np.uint8)
        canon = sigma_module._Canon(moved, k, sigma_module._Walk(24, 0, None))
        assert canon.table.tobytes() == table.tobytes()
        assert prod(factorial(int(v)) for v in table) * canon.stab == aut

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.integers(0, 2 ** 32))
    def test_random_tables_against_brute_force(self, k, seed):
        # tables that need not come from 8-divisible codes: any support on
        # the odd points (bit 0 set) that spans F_2^k
        rnd = random.Random(seed)
        while True:
            table = np.zeros(1 << k, dtype=np.uint8)
            table[1::2] = [rnd.choice((0, 0, 1, 1, 2, 3)) for _ in range(1 << k - 1)]
            span = {0}
            for x in np.flatnonzero(table):
                span |= {s ^ int(x) for s in span}
            if len(span) == 1 << k:
                break
        canon = sigma_module._Canon(table, k, sigma_module._Walk(8, 0, None))
        assert canon.stab == support_stabilizer_order(table.astype(np.int64), k)
        if k <= 3:
            assert canon.stab == gl_stabilizer_order(table.astype(np.int64), k)
        for g in canon.gens:
            assert (table[g] == table).all()
        moved = np.zeros_like(table)
        moved[random_gl(rnd, k)] = table
        again = sigma_module._Canon(moved, k, sigma_module._Walk(8, 0, None))
        assert again.table.tobytes() == canon.table.tobytes()

    @pytest.mark.parametrize("odd_entries", [
        [2, 2, 0, 1, 1, 2, 1, 2, 1, 0, 0, 3, 1, 2, 2, 3],
        [0, 0, 0, 1, 2, 2, 2, 2, 2, 2, 1, 1, 2, 2, 1, 0],
        [0, 1, 0, 3, 3, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1],
    ])
    def test_orbits_use_only_generators_fixing_the_prefix(self, odd_entries):
        # tables on F_2^5 where the whole automorphism group merges
        # options that the pointwise stabilizer of the prefix keeps apart
        table = np.zeros(32, dtype=np.uint8)
        table[1::2] = odd_entries
        canon = sigma_module._Canon(table, 5, sigma_module._Walk(8, 0, None))
        assert canon.stab == support_stabilizer_order(table.astype(np.int64), 5)

    def test_debug_log_has_one_line_per_level(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="genusforge.codes.sigma"):
            sigma_profile(16)
        lines = [rec.getMessage() for rec in caplog.records if rec.name == "genusforge.codes.sigma"]
        assert [line.split(":")[0] for line in lines] == [
            f"sigma_k(16) level {k}" for k in range(1, 6)]
        assert "1 classes, 81 extension vectors, double count 3405402000" in lines[2]
        assert "double count 0" in lines[4]

    def test_length_32_counts(self):
        # sigma_2 counts pairs {v, v + 1} with wt v in {8, 16, 24}; the full
        # profile and its mass are checked through the CLI
        assert sigma_k(32, 2, cap=None) == (comb(32, 8) + comb(32, 16) + comb(32, 24)) // 2
        p = sigma_profile(32, max_k=4, cap=None)
        assert p.complete and p.sigma(3) == 4651305429019275


class TestLexicode:
    def test_small_examples(self):
        assert sorted(lexicode(4, 4).words()) == [0, 0b1111]
        l84 = lexicode(8, 4)
        assert (l84.length, l84.dim) == (8, 4)
        assert weight_enumerator(l84) == [1, 0, 0, 0, 14, 0, 0, 0, 1]

    @pytest.mark.parametrize("n,d", [(6, 1), (7, 2), (10, 3), (12, 4), (10, 5), (12, 6)])
    def test_matches_literal_greedy_scan(self, n, d):
        assert sorted(lexicode(n, d).words()) == greedy_scan(n, d)

    @pytest.mark.parametrize("n,d", [(16, 4), (20, 4), (18, 6), (20, 8)])
    def test_minimum_distance_exhaustive(self, n, d):
        code = lexicode(n, d)
        assert min(w.bit_count() for w in code.words() if w) >= d

    def test_distance_one_is_the_full_space(self):
        assert lexicode(6, 1).dim == 6

    def test_length_48_distance_4(self):
        c = lexicode(48, 4)
        assert c.dim == 41 and is_even(c)
        d = dual_code(c)
        assert contains_allones(d) and weights_divisible_by_8(d)

    def test_validation(self):
        with pytest.raises(ValidationError):
            lexicode(0, 4)
        with pytest.raises(ValidationError):
            lexicode(65, 4)
        with pytest.raises(ValidationError):
            lexicode(8, 0)

    def test_coset_table_cap(self, monkeypatch):
        monkeypatch.setattr(lexicode_module, "_TABLE_CAP", 1 << 8)
        with pytest.raises(LimitError):
            lexicode(24, 13)
