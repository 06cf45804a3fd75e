"""Each benchmark check accepts the library's real answer and rejects a
deliberately perturbed one; the references agree with known values.

    python3 -m pytest bench/test_checks.py
"""

import copy
import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import genusforge.codes as codes  # noqa: E402
import genusforge.lattice as lat  # noqa: E402
import genusforge.modcat as mc  # noqa: E402
import genusforge.quadspace as qs  # noqa: E402

import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from checks import Mismatch  # noqa: E402


def perturbed_space(s, q_shift):
    """A stand-in space with the first q value moved by q_shift."""
    q = [SimpleNamespace(value=p.value) for p in s.q_gen]
    q[0] = SimpleNamespace(value=(q[0].value + q_shift) % 2)
    return SimpleNamespace(orders=s.orders, q_gen=q, b_matrix=s.b_matrix)


def disc(summands, seed=None):
    import random
    rng = None if seed is None else random.Random(seed)
    l = workloads.lattice_from(summands, rng)
    return l, lat.discriminant_form(l)


# --- references ----------------------------------------------------------------

def test_references_match_known_values():
    assert refs.e8_theta(3) == (1, 240, 2160, 6720)
    assert refs.unimodular16_theta(3) == (1, 480, 61920, 1050240)
    assert refs.doubly_even_code_count(8) == 902
    assert refs.sigma_by_spans(16, 2) == refs.sigma_closed_forms()[(16, 2)] == 6435
    assert refs.sigma4_16() == 60810750
    assert refs.signature_mod8((2,), [Fraction(1, 2)], [[Fraction(1, 2)]]) == 1
    assert refs.isotropic_count_from_gram(lat.builtin_lattice("D8").gram) == 3


def test_sigma4_orbit_count_matches_the_library():
    # about 20 s: the benchmark itself stops at k = 3
    profile = codes.sigma_profile(16, max_k=4, threads=1)
    checks.check_sigma(profile, {4: refs.sigma4_16()})


def test_signature_reference_rejects_a_degenerate_form():
    with pytest.raises(ValueError):
        refs.signature_mod8((2,), [Fraction(0)], [[Fraction(0)]])


def test_macwilliams_round_trip_and_rejects_a_perturbed_enumerator():
    golay = codes.lexicode(24, 8)
    w = refs.weight_distribution(list(golay.basis), 24)
    assert refs.macwilliams(w, 24) == w  # self-dual
    bad = list(w)
    bad[8] += 1
    bad[12] -= 1
    with pytest.raises(ValueError):
        refs.macwilliams(bad, 24)


def test_benchmark_json_lists_every_metric_a_run_reports():
    import json
    from spans import Tracer
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = Tracer().metrics()
    assert [m["name"] for m in doc["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]]["unit"] for m in doc["per_layer"])
    assert {m["name"] for m in doc["end_to_end"]} == {
        "setup_s", "wall_s", "query_p50_s", "query_p95_s", "peak_rss_mb"}
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_expect_equal():
    checks.expect_equal(3, 3, "same")
    with pytest.raises(Mismatch):
        checks.expect_equal(3, 4, "different")


# --- quadratic spaces and modular data --------------------------------------------

@pytest.fixture(scope="module")
def pointed():
    s = qs.build_space((2, 4), [Fraction(1, 2), Fraction(1, 4)])
    return s, mc.from_quadratic_space(s)


def test_pointed_data(pointed):
    s, m = pointed
    data = checks.space_data(s)
    checks.check_pointed_data(m, data)
    twists = list(m.twists)
    twists[1] = SimpleNamespace(value=(twists[1].value + Fraction(1, 8)) % 1)
    with pytest.raises(Mismatch):
        checks.check_pointed_data(SimpleNamespace(n=m.n, dual=m.dual, twists=twists), data)
    dual = list(m.dual)
    dual[1], dual[2] = dual[2], dual[1]
    with pytest.raises(Mismatch):
        checks.check_pointed_data(SimpleNamespace(n=m.n, dual=dual, twists=m.twists), data)


def test_fusion(pointed):
    s, m = pointed
    table = mc.verlinde_fusion(m)
    checks.check_fusion(table, s.orders)
    bad = np.array(table.table)
    bad[1, 1] = np.roll(bad[1, 1], 1)
    with pytest.raises(Mismatch):
        checks.check_fusion(SimpleNamespace(table=bad.tolist()), s.orders)


def test_relations(pointed):
    checks.check_relations(mc.verify_relations(pointed[1]))
    with pytest.raises(Mismatch):
        checks.check_relations(SimpleNamespace(ok=False))


def test_signature_and_milgram_references(pointed):
    s, m = pointed
    sig = refs.signature_mod8(*checks.space_data(s))
    assert qs.signature_mod8(s) == sig
    assert mc.voa_milgram_check(m, sig) and not mc.voa_milgram_check(m, sig + 4)
    with pytest.raises(Mismatch):
        checks.expect_equal(qs.signature_mod8(s), (sig + 1) % 8, "signature mod 8")


def test_genus_dimension_reference(pointed):
    s, m = pointed
    orders = s.orders
    for g, punct in ((0, (1, 7)), (1, (3,)), (2, (2, 2)), (2, ())):
        want = checks.pointed_genus_dimension(orders, g, punct)
        assert mc.genus_dimension(m, g, punct) == want
    assert checks.pointed_genus_dimension(orders, 2, ()) == 64
    assert checks.pointed_genus_dimension(orders, 1, (3,)) == 0


def test_ising():
    ising = mc.ising_data()
    checks.check_ising_fusion(mc.verlinde_fusion(ising))
    assert [checks.ising_genus_dimension(g) for g in (0, 1, 2)] == [1, 3, 10]
    assert [mc.genus_dimension(ising, g) for g in (0, 1, 2)] == [1, 3, 10]
    bad = np.array(mc.verlinde_fusion(ising).table)
    bad[2, 2] = [1, 0, 0]
    with pytest.raises(Mismatch):
        checks.check_ising_fusion(SimpleNamespace(table=bad.tolist()))


def test_modular_generator_counts_and_twists_keep_the_signature():
    assert len(workloads.block_sums(16)) == 207
    import random
    rng = random.Random(5)
    for orders, q, b in workloads.block_sums(8)[1:]:
        twisted = workloads.automorphism_twist(orders, q, b, rng)
        assert refs.signature_mod8(*twisted) == refs.signature_mod8(orders, q, b)
        qs.build_space(list(twisted[0]), twisted[1], twisted[2])


# --- lattices ---------------------------------------------------------------------

def test_disc_form():
    l, d = disc(["A1", "A3"], seed=3)
    checks.check_disc_form(d, l.gram)
    with pytest.raises(Mismatch):
        checks.check_disc_form(perturbed_space(d, Fraction(1)), l.gram)
    with pytest.raises(Mismatch):
        checks.check_disc_form(d, lat.builtin_lattice("A3").gram)


def test_roots():
    l = workloads.lattice_from(["A2", "D4"])
    report = lat.root_system(l)
    checks.check_roots(report, [("A", 2), ("D", 4)])
    with pytest.raises(Mismatch):
        checks.check_roots(report, [("A", 2), ("A", 4)])
    with pytest.raises(Mismatch):
        checks.check_roots(SimpleNamespace(components=report.components,
                                           root_count=report.root_count - 2),
                           [("A", 2), ("D", 4)])


def test_isometry():
    _, d = disc(["A1", "A1", "A3"])
    _, e = disc(["A1", "A1", "A3"], seed=9)
    witness = qs.is_isometric(d, e)
    checks.check_isometry(witness, d, e)
    with pytest.raises(Mismatch):
        checks.check_isometry(None, d, e)
    bad = list(witness)
    bad[0], bad[-1] = bad[-1], bad[0]
    with pytest.raises(Mismatch):
        checks.check_isometry(tuple(bad), d, e)


def test_extensions():
    l, d = disc(["D4", "D4"])
    reports = mc.simple_current_extensions(d)
    count = refs.isotropic_count_from_gram(l.gram)
    checks.check_extensions(reports, d, count)
    with pytest.raises(Mismatch):
        checks.check_extensions(reports[:-1], d, count)
    bad = copy.copy(reports)
    bad[1] = SimpleNamespace(subgroup=reports[1].subgroup, quotient=d)
    with pytest.raises(Mismatch):
        checks.check_extensions(bad, d, count)


def test_isotropic():
    _, d = disc(["A1"] * 5)
    subs = qs.isotropic_subgroups(d)
    count = refs.doubly_even_code_count(5)
    checks.check_isotropic(subs, d, count)
    with pytest.raises(Mismatch):
        checks.check_isotropic(subs[:-1], d, count)
    not_isotropic = qs.subgroup_from_generators(d, [d.generators()[0]])
    with pytest.raises(Mismatch):
        checks.check_isotropic(subs[:-1] + [not_isotropic], d, count)


def test_theta_reference():
    e8 = lat.builtin_lattice("E8")
    assert lat.theta_coefficients(e8, 2) == refs.e8_theta(2)
    with pytest.raises(Mismatch):
        checks.expect_equal((1, 240, 2161), refs.e8_theta(2), "theta")


def test_overlattices():
    l = lat.builtin_lattice("D8")
    found = lat.overlattices(l)
    count = refs.isotropic_count_from_gram(l.gram)
    checks.check_overlattices(found, l.gram, count)
    with pytest.raises(Mismatch):
        checks.check_overlattices(found[:-1], l.gram, count)
    sub, k = found[-1]
    gram = [list(r) for r in k.gram]
    gram[0][0] += 2
    with pytest.raises(Mismatch):
        checks.check_overlattices(found[:-1] + [(sub, SimpleNamespace(gram=gram))],
                                  l.gram, count)


# --- codes ---------------------------------------------------------------------

def test_sigma():
    profile = codes.sigma_profile(16, max_k=3, threads=1)
    want = {1: 1, 2: 6435, 3: refs.sigma_closed_forms()[(16, 3)]}
    checks.check_sigma(profile, want)
    counts = tuple((k, v + (k == 2)) for k, v in profile.counts)
    with pytest.raises(Mismatch):
        checks.check_sigma(SimpleNamespace(complete=True, length=16, counts=counts,
                                           sigma=dict(counts).get), want)
    assert all(refs.sigma_by_spans(r, k) == codes.sigma_k(r, k, threads=1)
               for r in (8, 9, 12) for k in (1, 2, 3))


def test_lexicode():
    golay = codes.lexicode(24, 8)
    checks.check_lexicode(golay, 24, 8)
    weak = codes.build_code(24, list(golay.basis[:-1]) + [0b111])
    with pytest.raises(Mismatch):
        checks.check_lexicode(weak, 24, 8)
    c = codes.lexicode(32, 4)
    want = refs.code_weights(list(c.basis), 32)
    checks.check_lexicode(c, 32, 4, want)
    with pytest.raises(Mismatch):
        checks.check_lexicode(codes.lexicode(32, 2), 32, 4, want)


def test_dual():
    c = codes.lexicode(32, 4)
    d = codes.dual_code(c)
    checks.check_dual(d, c)
    with pytest.raises(Mismatch):
        checks.check_dual(codes.build_code(32, d.basis[:-1]), c)
    with pytest.raises(Mismatch):
        checks.check_dual(codes.build_code(32, list(d.basis[:-1]) + [1]), c)


def test_weights():
    c = codes.lexicode(48, 4)
    d = codes.dual_code(c)
    wc, wd = codes.weight_enumerator(c), codes.weight_enumerator(d)
    checks.check_weights(wc, list(c.basis), 48, wd)
    checks.check_weights(wd, list(d.basis), 48, wc)
    bad = list(wd)
    bad[8] -= 1
    bad[16] += 1
    with pytest.raises(Mismatch):
        checks.check_weights(bad, list(d.basis), 48, wc)
    with pytest.raises(Mismatch):
        checks.check_weights(wc, list(c.basis), 48, bad)


def test_framed():
    c = codes.lexicode(48, 4)
    d = codes.dual_code(c)
    report = codes.check_framed_conditions(codes.FramedPair(c, d), self_dual=True)
    checks.check_framed(report, list(c.basis), list(d.basis), 48)
    flipped = tuple((k, not v if k == "c_even" else v) for k, v in report.conditions)
    with pytest.raises(Mismatch):
        checks.check_framed(SimpleNamespace(as_dict=lambda: dict(flipped), ok=report.ok),
                            list(c.basis), list(d.basis), 48)


# --- CLI documents ------------------------------------------------------------

def test_cli_documents():
    e8 = lat.lattice_to_json(lat.builtin_lattice("E8"))
    checks.check_lattice_doc(e8, 8, 1)
    with pytest.raises(Mismatch):
        checks.check_lattice_doc(e8, 8, 2)

    l, d = disc(["A1"] * 4 + ["A3"], seed=4)
    doc = qs.space_to_json(d)
    checks.check_form_doc(doc, l.gram)
    bad = dict(doc, q=["0"] + doc["q"][1:])
    with pytest.raises(Mismatch):
        checks.check_form_doc(bad, l.gram)

    iso = next(c for c in qs.isotropic_subgroups(d) if c.order == 2)
    quotient = qs.space_to_json(qs.quotient_space(d, iso))
    checks.check_quotient_doc(quotient, d.order, 2, len(l.gram) % 8)
    with pytest.raises(Mismatch):
        checks.check_quotient_doc(quotient, d.order, 2, (len(l.gram) + 2) % 8)

    parts = {"primary": {"2": doc}}
    checks.check_decompose_doc(parts, d.order)
    with pytest.raises(Mismatch):
        checks.check_decompose_doc({"primary": {"3": doc}}, d.order)

    code = codes.code_to_json(codes.lexicode(16, 4))
    rows = checks.code_rows(code)
    want = {"conditions": codes.check_framed_conditions(
        codes.FramedPair(codes.lexicode(16, 4), codes.lexicode(16, 4))).as_dict()}
    want["ok"] = all(want["conditions"].values())
    checks.check_framed_doc(want, rows)
    with pytest.raises(Mismatch):
        checks.check_framed_doc(dict(want, ok=not want["ok"]), rows)
    assert math.prod(d.orders) == 64
