"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they complete.  Criterion 7 honors GENUSFORGE_SIGMA_BUDGET (a node
count); when set, the enumeration stops early and the partial counts
per k are reported instead of being checked exactly.
"""

import os
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import numpy as np

from code_oracles import naive_sigma
from space_library import space_library
from space_oracle import oracle_q

import genusforge.codes as codes
import genusforge.lattice as lat
import genusforge.modcat as mc
import genusforge.quadspace as qs


@contextmanager
def criterion(n, budget_s, description):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {n} ({description}): FAIL")
        raise
    dt = time.monotonic() - t0
    print(f"criterion {n} ({description}): PASS in {dt:.1f}s "
          f"(budget {budget_s}s)")
    assert dt < budget_s, f"criterion {n} exceeded its {budget_s}s budget ({dt:.1f}s)"


BUILTINS = ["A1", "A2", "A3", "D4", "D8", "D16", "E8", "E8E8", "D16+"]


def test_criterion_1_milgram_suite():
    with criterion(1, 5, "signature_mod8 equals rank mod 8 on built-ins"):
        for name in BUILTINS:
            l = lat.builtin_lattice(name)
            s = lat.discriminant_form(l)
            assert qs.signature_mod8(s) == l.rank % 8, name


def test_criterion_2_overlattice_reconstruction():
    with criterion(2, 30, "overlattices(D8) recovers E8 twice"):
        found = lat.overlattices(lat.builtin_lattice("D8"))
        assert len(found) == 3
        proper = [m for sub, m in found if sub.order > 1]
        assert len(proper) == 2
        for m in proper:
            assert lat.discriminant_form(m).order == 1
            assert m.det == 1
            assert lat.theta_coefficients(m, 2) == (1, 240, 2160)
            assert lat.root_system(m).components == (("E", 8),)


def test_criterion_3_genus_vs_isomorphism():
    with criterion(3, 120, "E8^2 and D16+ share a genus but not roots"):
        a = lat.builtin_lattice("E8E8")
        b = lat.builtin_lattice("D16+")
        assert lat.same_genus(a, b)
        assert lat.theta_coefficients(a, 3) == lat.theta_coefficients(b, 3)
        ra, rb = lat.root_system(a), lat.root_system(b)
        assert ra.components == (("E", 8), ("E", 8))
        assert rb.components == (("D", 16),)
        assert ra.root_count == rb.root_count == 480


def _group_ring_table(s, elems):
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    expected = np.zeros((n, n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            expected[i, j, index[s.group.add(x, y)]] = 1
    return expected


def test_criterion_4_modular_relation_suite():
    with criterion(4, 60, "relations and fusion over all spaces with |A| <= 32"):
        for s in space_library(32):
            m = mc.from_quadratic_space(s)
            assert mc.verify_relations(m).ok, s
            table = mc.verlinde_fusion(m)
            got = np.array(table.table, dtype=np.int64)
            assert np.array_equal(got, _group_ring_table(s, list(s.elements()))), s
        ising = mc.ising_data()
        assert mc.verify_relations(ising).ok
        f = mc.verlinde_fusion(ising)
        assert f[2, 2] == (1, 1, 0)  # sigma x sigma = 1 + psi
        assert f[1, 1] == (1, 0, 0)  # psi x psi = 1
        assert f[1, 2] == (0, 0, 1)  # psi x sigma = sigma


def test_criterion_5_genus_g_verlinde():
    with criterion(5, 10, "genus-g dimensions |A|^g and puncture deltas"):
        for s in space_library(16):
            m = mc.from_quadratic_space(s)
            order = s.order
            for g in (0, 1, 2):
                assert mc.genus_dimension(m, g) == order ** g, (s, g)
            elems = list(s.elements())
            index = {x: i for i, x in enumerate(elems)}
            neg = [index[s.group.neg(x)] for x in elems]
            for i in range(len(elems)):
                for j in range(len(elems)):
                    expected = 1 if neg[i] == j else 0
                    assert mc.genus_dimension(m, 0, (i, j)) == expected


def test_criterion_6_voa_milgram():
    with criterion(6, 5, "central charge compatibility mod 8"):
        trivial = mc.from_quadratic_space(qs.trivial_space())
        for c in range(33):
            assert mc.voa_milgram_check(trivial, c) == (c % 8 == 0), c
        assert mc.voa_milgram_check(mc.ising_data(), Fraction(1, 2))
        for name in BUILTINS:
            l = lat.builtin_lattice(name)
            m = mc.from_quadratic_space(lat.discriminant_form(l))
            assert mc.voa_milgram_check(m, l.rank), name


def test_criterion_7_mass_formula_r16():
    budget_env = os.environ.get("GENUSFORGE_SIGMA_BUDGET")
    with criterion(7, 600, "sigma_k(16) enumeration and mass identity"):
        if budget_env is not None:
            profile = codes.sigma_profile(16, node_budget=int(budget_env))
            parts = ", ".join(f"sigma_{k} >= {v}" for k, v in profile.counts)
            print(f"  degraded mode (budget {budget_env} nodes, "
                  f"complete={profile.complete}): {parts}")
            if not profile.complete:
                return
        else:
            profile = codes.sigma_profile(16)
        sigma = dict(profile.counts)
        assert profile.complete
        assert sigma[1] == 1
        assert all(sigma[k] > 0 for k in range(1, 6))
        # k = 6 came out empty, and any higher-dimensional code would
        # contain a 6-dimensional one, so the enumeration is exhausted
        assert sigma[6] == 0
        lhs = Fraction(
            sum(2 ** (k * (k - 1) // 2 + 1) * v for k, v in profile.counts),
            2 ** 16 * factorial(16))
        rhs = sum(Fraction(2) ** (k * (k - 1) // 2 - 15) * v
                  for k, v in profile.counts) / factorial(16)
        assert lhs == rhs
        assert codes.relative_mass_rhs(16) == lhs
        gl42 = 1
        for i in range(4):
            gl42 *= 2 ** 4 - 2 ** i
        assert gl42 == 20160
        assert sigma[5] == factorial(16) // (2 ** 4 * gl42)


def _popcounts(words):
    lut = np.zeros(1 << 16, dtype=np.int64)
    for i in range(16):
        lut[1 << i: 1 << (i + 1)] = lut[: 1 << i] + 1
    total = np.zeros(len(words), dtype=np.int64)
    for shift in (0, 16, 32, 48):
        total += lut[(words >> shift) & 0xFFFF]
    return total


def test_criterion_8_lexicode_property():
    with criterion(8, 60, "lexicode(48, 4) and its 8-divisible dual"):
        c = codes.lexicode(48, 4)
        assert (c.length, c.dim) == (48, 41)
        assert codes.is_even(c)
        d = codes.dual_code(c)
        assert codes.contains_allones(d)
        # exact closure check on basis overlaps
        assert codes.weights_divisible_by_8(d)
        basis = list(d.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert (basis[i] ^ basis[j]).bit_count() % 8 == 0
        rng = np.random.default_rng(2026)
        coeffs = rng.integers(0, 2, size=(1_000_000, len(basis)), dtype=np.uint64)
        words = np.zeros(len(coeffs), dtype=np.uint64)
        for col, b in enumerate(basis):
            words ^= coeffs[:, col] * np.uint64(b)
        assert not np.any(_popcounts(words) % 8)


def _naive_isotropic(s):
    elems = list(s.elements())
    zero = tuple([0] * len(s.orders))
    iso = {x for x in elems if oracle_q(s, x) == 0}
    found = {frozenset([zero])}
    frontier = [frozenset([zero])]
    while frontier:
        base = frontier.pop()
        for x in iso:
            if x in base:
                continue
            grown = frozenset(qs.closure(s, set(base) | {x}))
            if grown in found or not grown <= iso:
                continue
            found.add(grown)
            frontier.append(grown)
    return found


def test_criterion_9_oracle_equivalences():
    with criterion(9, 120, "naive filters agree with the fast paths"):
        from fractions import Fraction as F
        half = F(1, 2)
        spaces = [
            qs.trivial_space(),
            lat.discriminant_form(lat.builtin_lattice("A1")),
            lat.discriminant_form(lat.builtin_lattice("D8")),
            qs.build_space((8,), [F(1, 8)]),
            qs.build_space((3, 3), [F(2, 3), F(4, 3)]),
            qs.build_space((2, 2, 2, 2), [0, 0, 0, 0],
                           [[0, half, 0, 0], [half, 0, 0, 0],
                            [0, 0, 0, half], [0, 0, half, 0]]),
            qs.build_space((8, 8), [0, 0],
                           [[0, F(1, 8)], [F(1, 8), 0]]),
        ]
        assert max(s.order for s in spaces) == 64
        for s in spaces:
            naive = _naive_isotropic(s)
            fast = {frozenset(c.elements) for c in qs.isotropic_subgroups(s)}
            assert naive == fast, s
        for r in (4, 8, 12):
            for k in (1, 2, 3):
                assert codes.sigma_k(r, k) == naive_sigma(r, k), (r, k)
        for name in ("A1", "A2", "A3", "D4"):
            l = lat.builtin_lattice(name)
            s = lat.discriminant_form(l)
            got = sorted(oracle_q(s, x) for x in s.elements())
            assert got == sorted(_coset_norms(l)), name


def _coset_norms(l):
    """q-values of L*/L computed from scratch: scan (1/d)Z^n / Z^n for
    dual vectors and read norms off the Gram matrix."""
    from fractions import Fraction as F
    from itertools import product
    g = l.gram
    n = l.rank
    d = l.det
    reps = []
    for x in product(range(d), repeat=n):
        y = [F(t, d) for t in x]
        if all(sum(g[i][j] * y[j] for j in range(n)).denominator == 1
               for i in range(n)):
            reps.append(y)
    assert len(reps) == d  # |L*/L| = det for even lattices given here
    return [sum(y[i] * g[i][j] * y[j] for i in range(n) for j in range(n)) % 2
            for y in reps]
