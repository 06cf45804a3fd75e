"""Checks of genusforge's answers against bench/refs.py or against a
property the mathematics requires.  Each check raises Mismatch.

The checks read library results through their public attributes only
(orders, q_gen, b_matrix, table, counts, basis, ...), so a test can hand
them a perturbed copy of a real answer.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

import refs


class Mismatch(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def expect_equal(got, want, what: str) -> None:
    expect(got == want, f"{what}: got {got!r}, expected {want!r}")


def signature(data) -> int:
    """Signature mod 8 of an (orders, q, b) answer from its Gauss sum; an
    answer whose Gauss sum is not of Milgram's shape is a mismatch."""
    if not data[0]:
        return 0
    try:
        return refs.signature_mod8(*data)
    except ValueError as e:
        raise Mismatch(str(e)) from e


def space_data(s):
    """(orders, q, b) of a FiniteQuadraticSpace, as plain Fractions."""
    return (tuple(s.orders), [p.value for p in s.q_gen],
            [[p.value for p in row] for row in s.b_matrix])


def json_space_data(doc):
    """(orders, q, b) of a space in the CLI's JSON format."""
    return (tuple(doc["orders"]), [Fraction(v) for v in doc["q"]],
            [[Fraction(v) for v in row] for row in doc["b"]])


# --- quadratic spaces and modular data -------------------------------------

def check_pointed_data(m, data) -> None:
    """Labels are the elements in grid order; twist of x is q(x)/2 mod 1 and
    the dual of x is -x."""
    orders, q, b = data
    size = math.prod(orders)
    expect_equal(m.n, size, "number of labels")
    den, v = refs.q_numerators(orders, q, b)
    twists = [Fraction(int(t), 2 * den) for t in v]
    expect_equal([t.value for t in m.twists], twists, "twists")
    grid = refs.element_grid(orders)
    dual = [refs.element_index(orders, [-c for c in x]) for x in grid.tolist()]
    expect_equal(list(m.dual), dual, "dual labels")


def check_fusion(table, orders) -> None:
    got = np.array(table.table, dtype=np.int64)
    want = refs.group_ring_fusion(orders)
    expect(got.shape == want.shape and np.array_equal(got, want),
           f"fusion table differs from the group ring of {orders}")


def check_relations(report) -> None:
    expect(report.ok, f"modular relations reported failing: {report!r}")


def pointed_genus_dimension(orders, g, punctures) -> int:
    """|A|^g when the punctures sum to 0 in A, else 0."""
    total = [0] * len(orders)
    grid = refs.element_grid(orders)
    for label in punctures:
        total = [a + c for a, c in zip(total, grid[label])]
    closed = all(a % d == 0 for a, d in zip(total, orders))
    return math.prod(orders) ** g if closed else 0


ISING_S = np.array([[1, 1, math.sqrt(2)], [1, 1, -math.sqrt(2)],
                    [math.sqrt(2), -math.sqrt(2), 0]]) / 2


def ising_fusion() -> np.ndarray:
    """Verlinde formula in floating point from the Ising S matrix."""
    s = ISING_S
    n = np.einsum("il,jl,kl->ijk", s, s, s / s[0][None, :])
    return np.rint(n).astype(np.int64)


def ising_genus_dimension(g: int) -> int:
    return int(round(float(np.sum(ISING_S[0] ** (2 - 2 * g)))))


def check_ising_fusion(table) -> None:
    got = np.array(table.table, dtype=np.int64)
    expect(np.array_equal(got, ising_fusion()), "Ising fusion table")


# --- lattices ---------------------------------------------------------------------

def check_disc_form(space, gram) -> None:
    """|L*/L| = det L, and Milgram: the Gauss sum has phase rank/8 for a
    positive definite even lattice."""
    check_disc_data(space_data(space), gram)


def check_disc_data(data, gram) -> None:
    expect_equal(math.prod(data[0]), abs(refs.det_int(gram)), "discriminant group order")
    expect_equal(signature(data), len(gram) % 8, "Gauss sum phase")


def check_roots(report, components) -> None:
    expect_equal(tuple(report.components), tuple(sorted(components)), "root system components")
    expect_equal(report.root_count, refs.root_count(components), "number of roots")


def check_isometry(witness, s1, s2) -> None:
    expect(witness is not None, "isometric spaces reported not isometric")
    expect(refs.is_isometry_witness(space_data(s1), space_data(s2), witness),
           f"isometry witness {witness!r} is not an isometry")


def check_extensions(reports, space, count: int) -> None:
    """One report per isotropic subgroup; C-perp/C has order |A|/|C|^2 and
    the signature of A."""
    expect_equal(len(reports), count, "number of simple-current extensions")
    data = space_data(space)
    sig = signature(data)
    for r in reports:
        qdata = space_data(r.quotient)
        size = math.prod(data[0])
        expect_equal(math.prod(qdata[0]), size // r.subgroup.order ** 2, "quotient order")
        expect_equal(signature(qdata), sig, "quotient signature")


def check_isotropic(subgroups, space, count: int) -> None:
    orders, q, b = space_data(space)
    expect_equal(len(subgroups), count, "number of isotropic subgroups")
    expect_equal(len({frozenset(c.elements) for c in subgroups}), count,
                 "distinct isotropic subgroups")
    den, v = refs.q_numerators(orders, q, b)
    isotropic = {tuple(x) for x, t in zip(refs.element_grid(orders).tolist(), v) if t == 0}
    for c in subgroups:
        expect(set(map(tuple, c.elements)) <= isotropic, "subgroup is not isotropic")
        expect(math.prod(orders) % len(c.elements) == 0, "subgroup order divides |A|")


def check_overlattices(found, gram, count: int) -> None:
    """One even overlattice per isotropic subgroup, of determinant
    det L / |C|^2."""
    expect_equal(len(found), count, "number of overlattices")
    det = refs.det_int(gram)
    for sub, k in found:
        g = k.gram
        expect(all(g[i][j] == g[j][i] for i in range(len(g)) for j in range(len(g)))
               and all(g[i][i] % 2 == 0 for i in range(len(g))),
               "overlattice Gram matrix is not even symmetric")
        expect_equal(refs.det_int(g) * sub.order ** 2, det, "overlattice determinant")


# --- codes --------------------------------------------------------------------

def check_sigma(profile, want: dict[int, int]) -> None:
    expect(profile.complete, "sigma profile is incomplete")
    got = {k: profile.sigma(k) for k in want}
    expect_equal(got, want, f"sigma_k({profile.length})")


def check_lexicode(code, n: int, d: int, want=None) -> None:
    """Length n and minimum distance at least d, attained; the weight
    distribution equals `want` when given; lexicode(24, 8) is the
    extended Golay code."""
    expect_equal(code.length, n, "lexicode length")
    weights = refs.code_weights(list(code.basis), n)
    expect(all(w == 0 for w in weights[1:d]) and sum(weights[d:]) > 0,
           f"lexicode ({n}, {d}) weights {weights}")
    if want is not None:
        expect_equal(weights, want, "lexicode weight distribution")
    if (n, d) == (24, 8):
        expect_equal({i: c for i, c in enumerate(weights) if c}, refs.GOLAY_WEIGHTS,
                     "lexicode(24, 8) is the extended Golay code")


def check_dual(dual, code) -> None:
    expect_equal(dual.length, code.length, "dual length")
    expect_equal(refs.rank_f2(dual.basis), code.length - refs.rank_f2(code.basis),
                 "dual dimension")
    expect(refs.orthogonal(dual.basis, code.basis), "dual is not orthogonal to the code")


def check_weights(weights, rows, n: int, dual_weights=None) -> None:
    """Direct enumeration for small codes, the MacWilliams identity through
    Krawtchouk polynomials otherwise."""
    k = refs.rank_f2(rows)
    expect_equal(sum(weights), 2 ** k, "weight enumerator total")
    if k <= 14:
        expect_equal(list(weights), refs.weight_distribution(rows, n), "weight enumerator")
    else:
        expect(dual_weights is not None, "no dual enumerator to compare with")
        try:
            transformed = refs.macwilliams(dual_weights, n)
        except ValueError as e:
            raise Mismatch(str(e)) from e
        expect_equal(transformed, list(weights), "MacWilliams transform of the dual enumerator")


def check_framed(report, c_rows, d_rows, n: int) -> None:
    """The self-dual framing conditions, recomputed on bitmasks."""
    expect(len(d_rows) <= 16, "second code too large to enumerate")
    d_words = refs.span_words(d_rows)
    want = {
        "d_subset_c_dual": refs.orthogonal(c_rows, d_rows),
        "c_even": all(r.bit_count() % 2 == 0 for r in c_rows),
        "d_weights_multiple_of_8": all(w.bit_count() % 8 == 0 for w in d_words),
        "length_multiple_of_16": n % 16 == 0,
        "d_equals_c_dual": (refs.orthogonal(c_rows, d_rows)
                            and refs.rank_f2(c_rows) + refs.rank_f2(d_rows) == n),
        "allones_in_d": refs.in_span((1 << n) - 1, d_rows),
    }
    expect_equal(report.as_dict(), want, "framing conditions")
    expect_equal(report.ok, all(want.values()), "framing verdict")


# --- CLI documents ------------------------------------------------------------

def code_rows(doc) -> list[int]:
    """Bitmask rows of a code document; the first character is coordinate 0."""
    return [sum(1 << i for i, ch in enumerate(s) if ch == "1") for s in doc["basis"]]


def check_lattice_doc(doc, rank: int, det: int) -> None:
    g = doc["gram"]
    expect(len(g) == rank and all(g[i][i] % 2 == 0 for i in range(rank)),
           f"lattice {doc.get('name')} is not even of rank {rank}")
    expect_equal(refs.det_int(g), det, f"determinant of {doc.get('name')}")


def check_form_doc(doc, gram) -> None:
    """`lattice disc-form` output: order det L, Gauss sum phase rank/8."""
    check_disc_data(json_space_data(doc), gram)


def check_framed_doc(doc, rows) -> None:
    """`codes check-framed c.json c.json`: the three conditions for (C, C)."""
    words = refs.span_words(rows)
    want = {"d_subset_c_dual": refs.orthogonal(rows, rows),
            "c_even": all(r.bit_count() % 2 == 0 for r in rows),
            "d_weights_multiple_of_8": all(x.bit_count() % 8 == 0 for x in words)}
    expect_equal(doc, {"conditions": want, "ok": all(want.values())}, "check-framed")


def check_quotient_doc(doc, order: int, sub_order: int, sig: int) -> None:
    data = json_space_data(doc)
    expect_equal(math.prod(data[0]), order // sub_order ** 2, "quotient order")
    expect_equal(signature(data), sig, "quotient signature")


def check_decompose_doc(doc, order: int) -> None:
    """Each primary part is a p-group; their orders multiply to |A|."""
    parts = doc["primary"]
    for p, part in parts.items():
        size = math.prod(part["orders"])
        while size > 1 and size % int(p) == 0:
            size //= int(p)
        expect(part["orders"] and size == 1, f"primary part {p} is not a {p}-group")
    expect_equal(math.prod(math.prod(part["orders"]) for part in parts.values()), order,
                 "product of primary parts")
