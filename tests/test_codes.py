"""Binary code operations, sigma counts, and lexicodes."""

import itertools
import json
import logging
import random
from functools import cache
from math import comb, factorial, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    sigma_k,
    sigma_profile,
    weight_enumerator,
    weights_divisible_by_8,
)
from importlib import import_module

from code_oracles import (
    _tables,
    dict_lexicode,
    extension_count,
    gl_stabilizer_order,
    greedy_scan,
    list_words,
    loop_weight_enumerator,
    naive_sigma,
    popcount_framed_report,
    support_stabilizer_order,
    sweep_sigma,
)

binary_module = import_module("genusforge.codes.binary")
greedy_module = import_module("genusforge.codes.greedy")
sigma_module = import_module("genusforge.codes.sigma")
from genusforge.errors import InternalError, LimitError, ValidationError


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

    def test_one_analysis_builds_the_dual_once(self, monkeypatch):
        # The dual, both weight enumerators and the self-dual framing check,
        # as one code-count benchmark query makes them.  The large code and
        # the small code's dual take the MacWilliams branch, which reads the
        # dual already kept on them.
        large, small = lexicode(32, 4), random_code(random.Random(5), 20, 4)
        build = binary_module.build_code
        calls = []
        monkeypatch.setattr(binary_module, "build_code",
                            lambda *args: calls.append(args) or build(*args))
        for c in (large, small):
            calls.clear()
            d = dual_code(c)
            weight_enumerator(c)
            weight_enumerator(d)
            check_framed_conditions(FramedPair(c, d), self_dual=True)
            assert len(calls) == 1
            assert dual_code(c) is d and dual_code(d) is c
            assert dual_code(BinaryCode(d.length, d.basis)) == c

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

    @settings(deadline=None)
    @given(st.integers(1, 48), st.integers(0, 12), st.booleans(), st.integers(0, 2**32))
    @example(48, 6, True, 0)
    @example(48, 7, True, 0)
    @example(62, 12, True, 0)
    def test_weight_enumerator_matches_the_loop_oracle(self, r, side, big, seed):
        # min(k, r - k) <= 12 keeps the oracle fast; big puts k above r - k,
        # where the enumerator goes through the dual and MacWilliams.  The
        # product runs in int64 at (48, 7), where C(48, 24) 2^7 < 2^63, and
        # on Python ints at (62, 12), where C(62, 31) 2^12 > 2^63.
        rng = random.Random(seed)
        k = r - min(side, r) if big else min(side, r)
        c = random_code(rng, r, k)
        assert weight_enumerator(c) == loop_weight_enumerator(c)
        small = dual_code(c) if big else c
        assert small.words() == list_words(small)

    def test_enumerating_a_huge_code_is_refused(self):
        c = build_code(64, [1 << i for i in range(32)])
        with pytest.raises(LimitError):
            weight_enumerator(c)
        with pytest.raises(LimitError):
            c.words()

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

    @pytest.mark.parametrize("basis", ["10", {"1": 0, "0": 1}, None])
    def test_json_basis_must_be_a_list(self, basis):
        with pytest.raises(ValidationError):
            code_from_json({"length": 1, "basis": basis})

    def test_row_exceeding_length_rejected(self):
        with pytest.raises(ValidationError):
            build_code(3, [0b1000])

    def test_rref_idempotent(self):
        c = build_code(7, [0b1010101, 0b0110011])
        assert build_code(c.length, c.basis) == c

    @pytest.mark.parametrize("basis", [
        (0b0110, 0b0001),          # pivots decrease
        (0b0011, 0b0110),          # pivot 0b0010 set in the first row
        (0b0101, 0b0100),          # pivot 0b0100 set in the first row
        (0b0011, 0b0001),          # repeated pivot
        (0b0001, 0),               # zero row
        (0b10000,),                # word beyond the length
        (-1,),                     # negative word
        [0b0001],                  # rows not a tuple
    ], ids=["order", "pivot-above", "pivot-later", "repeat", "zero", "length",
            "negative", "list"])
    def test_non_rref_basis_rejected(self, basis):
        with pytest.raises(ValidationError):
            BinaryCode(4, basis)

    def test_rref_check_agrees_with_elimination(self):
        # every basis of up to three words of length <= 4 is accepted exactly
        # when elimination leaves it unchanged
        for length in range(5):
            for k in range(4):
                for basis in itertools.product(range(1 << length), repeat=k):
                    try:
                        BinaryCode(length, basis)
                        ok = True
                    except ValidationError:
                        ok = False
                    assert ok == (basis == build_code(length, basis).basis), basis


@pytest.mark.parametrize("call", [
    lambda: lexicode(True, 1),
    lambda: lexicode(4, True),
    lambda: BinaryCode(True, ()),
    lambda: code_from_json({"length": True, "basis": ["1"]}),
    lambda: sigma_profile(True),
    lambda: sigma_profile(16, max_k=True),
    lambda: sigma_k(16, True),
    lambda: relative_mass_rhs(True),
], ids=["lexicode-n", "lexicode-d", "code-length", "json-length", "sigma-length",
        "max-k", "sigma-k", "mass-length"])
def test_bool_is_not_an_integer(call):
    with pytest.raises(ValidationError):
        call()


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

    @staticmethod
    def dual_verdicts(c, d):
        """The two duality conditions decided on the dual code itself."""
        c_perp = dual_code(c)
        return {"d_subset_c_dual": all(row in c_perp for row in d.basis),
                "d_equals_c_dual": d == c_perp}

    def assert_dual_verdicts(self, c, d):
        report = check_framed_conditions(FramedPair(c, d), self_dual=True).as_dict()
        got = {key: report[key] for key in ("d_subset_c_dual", "d_equals_c_dual")}
        assert got == self.dual_verdicts(c, d), (c, d)

    def test_duality_verdicts_match_the_dual_code_on_small_codes(self):
        # Every code spanned by at most 3 words, at lengths 1 to 6.  Up to
        # length 5 every pair; at length 6 each code against every code
        # spanned by at most 3 words of its dual's basis (so D = C-perp is
        # met whenever dim C >= 3) and against a fixed sample.
        rng = random.Random(28)
        for r in range(1, 7):
            codes = {build_code(r, rows)
                     for k in range(4)
                     for rows in itertools.combinations(range(1, 1 << r), k)}
            codes = sorted(codes, key=lambda code: code.basis)
            sample = codes if r <= 5 else rng.sample(codes, 30)
            for c in codes:
                partners = sample
                if r == 6:
                    perp = dual_code(c).basis
                    partners = sample + [build_code(r, rows)
                                         for k in range(4)
                                         for rows in itertools.combinations(perp, k)]
                for d in partners:
                    self.assert_dual_verdicts(c, d)

    @pytest.mark.parametrize("n, dist", [(8, 4), (16, 4), (24, 8), (32, 4), (48, 4)])
    def test_duality_verdicts_match_the_dual_code_on_lexicodes(self, n, dist):
        c = lexicode(n, dist)
        perp = dual_code(c)
        for pair in ((c, perp), (perp, c), (c, c), (perp, perp)):
            self.assert_dual_verdicts(*pair)

    def test_reports_match_the_popcount_oracle_on_random_pairs(self):
        # D is C-perp itself, C-perp rebuilt from a mixed and shuffled basis,
        # a proper subcode of C-perp, and a code holding a word with an odd
        # overlap with a row of C.
        rng = random.Random(31)

        def mixed(rows):
            rows = list(rows)
            for i in range(1, len(rows)):
                rows[i] ^= rows[rng.randrange(i)]
            rng.shuffle(rows)
            return rows

        seen = set()
        for _ in range(150):
            r = rng.randint(1, 64)
            c = build_code(r, [rng.randrange(1, 1 << r) for _ in range(rng.randint(1, r))])
            perp = dual_code(c)
            rebuilt = build_code(r, mixed(perp.basis))
            assert rebuilt == perp and rebuilt is not perp
            cases = [("perp", perp, True), ("rebuilt", rebuilt, True)]
            if perp.dim:
                sub = build_code(r, mixed(perp.basis)[1:])
                cases.append(("subcode", sub, True))
            else:
                sub = perp
            a = rng.choice(c.basis)
            word = rng.getrandbits(r)
            if (word & a).bit_count() % 2 == 0:
                word ^= a & -a
            cases.append(("outside", build_code(r, list(sub.basis) + [word]), False))
            for name, d, inside in cases:
                for self_dual in (False, True):
                    pair = FramedPair(c, d)
                    want = popcount_framed_report(pair, self_dual)
                    assert check_framed_conditions(pair, self_dual) == want, (c, d)
                    assert want.as_dict()["d_subset_c_dual"] == inside
                seen.add(name)
        assert seen == {"perp", "rebuilt", "subcode", "outside"}


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

    @pytest.mark.parametrize("kwargs", [{"cap": -1}, {"cap": True}, {"node_budget": -1},
                                        {"node_budget": True}])
    def test_caps_must_be_nonnegative_integers(self, kwargs):
        with pytest.raises(ValidationError, match="nonnegative integer"):
            sigma_profile(8, **kwargs)


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

    @pytest.mark.parametrize("n", range(1, 17))
    def test_matches_the_dict_coset_table_for_every_distance(self, n):
        for d in range(1, n + 1):
            assert lexicode(n, d) == dict_lexicode(n, d)

    @pytest.mark.parametrize("n,d", [(24, 8), (30, 7), (32, 4), (40, 6), (48, 4),
                                     (64, 1), (64, 2), (64, 4)])
    def test_matches_the_dict_coset_table(self, n, d):
        assert lexicode(n, d) == dict_lexicode(n, d)

    def test_debug_log_has_one_line_per_call(self, caplog):
        with caplog.at_level(logging.DEBUG, logger=greedy_module.__name__):
            lexicode(8, 4)
        lines = [rec.getMessage() for rec in caplog.records
                 if rec.name == greedy_module.__name__]
        assert len(lines) == 1
        assert "lexicode(8, 4): 4 rows admitted, largest coset table 16" in lines[0]

    def test_a_dependent_greedy_row_is_an_internal_error(self, monkeypatch):
        build = greedy_module.build_code
        monkeypatch.setattr(greedy_module, "build_code",
                            lambda n, rows: build(n, rows[1:]))
        with pytest.raises(InternalError):
            lexicode(8, 4)

    def test_coset_table_cap(self, monkeypatch):
        monkeypatch.setattr(greedy_module, "_TABLE_CAP", 1 << 8)
        with pytest.raises(LimitError):
            lexicode(24, 13)
