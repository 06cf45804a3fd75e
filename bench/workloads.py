"""The four workloads.  Each has build(seed, workdir) -> inputs, timed as
set-up; references(inputs) -> what the round checks against, untimed and
made without the library (for genus-extensions and code-count, the whole
round as a plan of queries with their checks); and run_round(ctx, inputs,
expected), which issues the same queries in the same order every round.

Library functions are looked up on their modules when a round or a plan
is made, after a traced run has wrapped them.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import genusforge.codes as codes
import genusforge.lattice as lat
import genusforge.modcat as mc
import genusforge.quadspace as qs

import checks
import refs
from checks import expect_equal


# --- shared input generators ---------------------------------------------------

def block_diagonal(grams):
    n = sum(len(g) for g in grams)
    out = [[0] * n for _ in range(n)]
    at = 0
    for g in grams:
        for i, row in enumerate(g):
            out[at + i][at:at + len(row)] = row
        at += len(g)
    return out


def basis_change(gram, rng: random.Random):
    """U G U^T with U = P (I + N): P a random signed permutation and N a
    superdiagonal of random signs.  Every seed gives entries of the same
    size, so the work of a query depends little on the seed."""
    n = len(gram)
    u = [[int(j == i) + (rng.choice((-1, 1)) if j == i + 1 else 0) for j in range(n)]
         for i in range(n)]
    rng.shuffle(u)
    u = [[-x for x in row] if rng.random() < 0.5 else row for row in u]
    ug = [[sum(u[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]


def lattice_from(summands, rng=None, name=None):
    gram = block_diagonal([lat.builtin_lattice(s).gram for s in summands])
    if rng is not None:
        gram = basis_change(gram, rng)
    return lat.build_lattice(gram, name)


ROOTS = {"E8E8": [("E", 8), ("E", 8)], "D16+": [("D", 16)]}


def root_components(summands):
    out = []
    for s in summands:
        out += ROOTS[s] if s in ROOTS else [(s[0], int(s[1:]))]
    return out


def spread(main, extra):
    """main with the items of extra placed evenly between its items, so that
    queries of one kind are spread over the whole round rather than run
    back to back in one short stretch of time."""
    out = []
    for i, item in enumerate(main):
        out.append(item)
        out += extra[len(extra) * i // len(main): len(extra) * (i + 1) // len(main)]
    return out


def run_plan(ctx, plan):
    for name, fn, args, kwargs, check in plan:
        ctx.call(name, fn, *args, check=check, **kwargs)


# --- modular-data -----------------------------------------------------------------

MODULAR_BOUND = 16


def _prime_power(d):
    p = next(p for p in range(2, d + 1) if d % p == 0)
    while d % p == 0:
        d //= p
    return p if d == 1 else None


def indecomposable_blocks(bound):
    """(orders, q, b) of every cyclic block on Z/p^k and every rank-2 block
    u_k, v_k on (Z/2^k)^2 with order at most bound."""
    out = []
    for d in range(2, bound + 1):
        p = _prime_power(d)
        if p == 2:
            out += [((d,), [Fraction(a, d)], [[Fraction(a, d) % 1]]) for a in range(1, 2 * d, 2)]
        elif p is not None:
            out += [((d,), [Fraction(2 * a, d)], [[Fraction(2 * a, d) % 1]])
                    for a in range(1, d) if math.gcd(a, d) == 1]
    k = 1
    while 4 ** k <= bound:
        h = Fraction(1, 2 ** k)
        out.append(((2 ** k,) * 2, [Fraction(0)] * 2, [[Fraction(0), h], [h, Fraction(0)]]))
        out.append(((2 ** k,) * 2, [2 * h] * 2, [[2 * h % 1, h], [h, 2 * h % 1]]))
        k += 1
    return out


def block_sums(bound):
    """Every multiset of blocks with total order at most bound, the empty
    sum included, as raw orthogonal generator data."""
    blocks = indecomposable_blocks(bound)
    found = []

    def extend(chosen, start, order):
        found.append(chosen)
        for i in range(start, len(blocks)):
            size = math.prod(blocks[i][0])
            if order * size <= bound:
                extend(chosen + [i], i, order * size)

    extend([], 0, 1)
    sums = []
    for chosen in found:
        orders, q, bs = [], [], []
        for i in chosen:
            orders += blocks[i][0]
            q += blocks[i][1]
            bs.append(blocks[i][2])
        b = block_diagonal(bs) if bs else []
        sums.append((tuple(orders), q, [[Fraction(x) for x in row] for row in b]))
    return sums


def automorphism_twist(orders, q, b, rng: random.Random):
    """The same space on new generators: an automorphism of the group made
    of unit scalings and shears e_j += c e_i, with c chosen so e_j keeps
    its order."""
    n = len(orders)
    images = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            u = rng.choice([u for u in range(1, orders[j]) if math.gcd(u, orders[j]) == 1])
            images[j] = [(u * a) % d for a, d in zip(images[j], orders)]
        else:
            c = rng.randrange(1, orders[i] + 1) * (orders[i] // math.gcd(orders[i], orders[j]))
            images[j] = [(a + c * e) % d for a, e, d in zip(images[j], images[i], orders)]
    new_q = [refs.quadratic(q, b, y) for y in images]
    new_b = [[refs.bilinear(b, y, z) for z in images] for y in images]
    return orders, new_q, new_b


def build_modular(seed, workdir):
    rng = random.Random(seed)
    spaces = []
    for orders, q, b in block_sums(MODULAR_BOUND):
        raw = automorphism_twist(orders, q, b, rng) if orders else (orders, q, b)
        spaces.append((raw, qs.build_space(list(raw[0]), raw[1], raw[2])))
    return {"spaces": spaces, "seed": seed}


def references_modular(inputs):
    rng = random.Random(inputs["seed"] + 1)
    out = []
    for raw, s in inputs["spaces"]:
        data = checks.space_data(s)
        orders = data[0]
        n = math.prod(orders)
        grid = refs.element_grid(orders).tolist()
        x, y, z = (rng.randrange(n) for _ in range(3))
        minus_xy = refs.element_index(orders, [-a - c for a, c in zip(grid[x], grid[y])])
        minus_z = refs.element_index(orders, [-a for a in grid[z]])
        genus = [(0, (x, y, minus_xy)), (1, (rng.randrange(n),)), (2, (z, minus_z))]
        out.append({
            "sig": refs.signature_mod8(*raw) if raw[0] else 0,
            "data": data,
            "genus": [(g, p, checks.pointed_genus_dimension(orders, g, p)) for g, p in genus],
        })
    return out


def round_modular(ctx, inputs, expected):
    for (_, s), ref in zip(inputs["spaces"], expected):
        sig = ref["sig"]
        ctx.call("signature_mod8", qs.signature_mod8, s,
                 check=lambda got: expect_equal(got, sig, "signature mod 8"))
        m = ctx.call("from_quadratic_space", mc.from_quadratic_space, s,
                     check=lambda got: checks.check_pointed_data(got, ref["data"]))
        if m is None:
            ctx.skip(7)
            continue
        ctx.call("verify_relations", mc.verify_relations, m, check=checks.check_relations)
        ctx.call("verlinde_fusion", mc.verlinde_fusion, m,
                 check=lambda t: checks.check_fusion(t, ref["data"][0]))
        for g, punct, want in ref["genus"]:
            ctx.call("genus_dimension", mc.genus_dimension, m, g, punct,
                     check=lambda got: expect_equal(got, want, f"genus-{g} dimension"))
        ctx.call("voa_milgram_check", mc.voa_milgram_check, m, sig,
                 check=lambda got: expect_equal(got, True, "Milgram at c = signature"))
        ctx.call("voa_milgram_check", mc.voa_milgram_check, m, sig + 4,
                 check=lambda got: expect_equal(got, False, "Milgram at c = signature + 4"))
    ising = ctx.call("ising_data", mc.ising_data)
    if ising is None:
        ctx.skip(6)
        return
    ctx.call("verify_relations", mc.verify_relations, ising, check=checks.check_relations)
    ctx.call("verlinde_fusion", mc.verlinde_fusion, ising, check=checks.check_ising_fusion)
    for g in (0, 1, 2):
        want = checks.ising_genus_dimension(g)
        ctx.call("genus_dimension", mc.genus_dimension, ising, g,
                 check=lambda got: expect_equal(got, want, f"Ising genus-{g} dimension"))
    ctx.call("voa_milgram_check", mc.voa_milgram_check, ising, Fraction(1, 2),
             check=lambda got: expect_equal(got, True, "Ising Milgram at c = 1/2"))


# --- genus-extensions ---------------------------------------------------------------

GENUS_LATTICES = [
    ["A1"], ["A2"], ["A3"], ["D4"], ["D8"], ["D16"], ["E8"], ["E8E8"], ["D16+"],
    ["A1"] * 2, ["A1"] * 4, ["A1"] * 6, ["A1"] * 7, ["D4", "D4"], ["A2", "A2"],
    ["A1", "A3"], ["A2", "D4"],
]
# Seeded basis changes per lattice.  Most queries are then basis changes of
# A1^4, of about equal cost, so the median query lies inside that cluster
# rather than in a gap between lattices of very different size, where it
# would jump with small changes.  With about 400 queries a round the 95th
# percentile falls inside the cluster of rank-16 queries in the same way,
# rather than at its edge next to the ten slowest queries.
BASIS_CHANGES = {"A1+A1+A1+A1": 280, "E8E8": 6, "D16+": 6, "D16": 6}
EXTENSION_ORDER_CAP = 64
OVERLATTICES = [["D8"], ["D4", "D4"], ["A1"] * 6]
# Theta to norm 4 and the isotropic subgroups of disc(A1^7): theta to norm 6
# takes 10-16 s in one call on a 2-vCPU Xeon and disc(A1^8) 3-5 s; a round must be
# short enough to repeat many times in a run (see README).
THETA_TERMS = 2
ISOTROPIC_RANK = 7


def build_genus(seed, workdir):
    rng = random.Random(seed)
    lattices = []
    for summands in GENUS_LATTICES:
        base = lattice_from(summands, name="+".join(summands))
        count = BASIS_CHANGES.get("+".join(summands), 2)
        changed = [lattice_from(summands, rng) for _ in range(count)]
        lattices.append((summands, base, lat.discriminant_form(base), changed))
    # A1^12 beside a basis change that does not depend on the seed: the
    # same_genus call on this pair is the benchmark's one expected failure.
    fixed = random.Random(12)
    return {
        "lattices": lattices,
        "e8e8": lat.builtin_lattice("E8E8"),
        "d16p": lat.builtin_lattice("D16+"),
        "overlattices": [lattice_from(s) for s in OVERLATTICES],
        "a1_n": lat.discriminant_form(lattice_from(["A1"] * ISOTROPIC_RANK, rng)),
        "a1_12": (lattice_from(["A1"] * 12), lattice_from(["A1"] * 12, fixed)),
    }


def compare_basis_change(d, other):
    """One query: the discriminant form of a basis change, and an isometry
    onto it from the original's."""
    e = lat.discriminant_form(other)
    return e, qs.is_isometric(d, e)


def check_basis_change(got, d, other):
    e, witness = got
    checks.check_disc_form(e, other.gram)
    checks.check_isometry(witness, d, e)


def references_genus(inputs):
    """The round as a list of (name, function, args, kwargs, check)."""
    main, changes = [], []
    for summands, base, d, changed in inputs["lattices"]:
        main.append(("discriminant_form", lat.discriminant_form, (base,), {},
                     partial(checks.check_disc_form, gram=base.gram)))
        main.append(("root_system", lat.root_system, (base,), {},
                     partial(checks.check_roots, components=root_components(summands))))
        if d.order <= EXTENSION_ORDER_CAP:
            count = refs.isotropic_count_from_gram(base.gram)
            main.append(("simple_current_extensions", mc.simple_current_extensions, (d,), {},
                         partial(checks.check_extensions, space=d, count=count)))
        main.append(("same_genus", lat.same_genus, (base, changed[0]), {},
                     partial(expect_equal, want=True, what="genus of a basis change")))
        changes += [("basis_change", compare_basis_change, (d, other), {},
                     partial(check_basis_change, d=d, other=other)) for other in changed]
    theta = refs.unimodular16_theta(THETA_TERMS)
    main.append(("same_genus", lat.same_genus, (inputs["e8e8"], inputs["d16p"]), {},
                 partial(expect_equal, want=True, what="E8^2 and D16+ share a genus")))
    for key in ("e8e8", "d16p"):
        main.append(("theta_coefficients", lat.theta_coefficients, (inputs[key], THETA_TERMS),
                     {}, lambda got: expect_equal(tuple(got), theta, "theta")))
    for summands, l in zip(OVERLATTICES, inputs["overlattices"]):
        count = (refs.doubly_even_code_count(6) if summands == ["A1"] * 6
                 else refs.isotropic_count_from_gram(l.gram))
        main.append(("overlattices", lat.overlattices, (l,), {},
                     partial(checks.check_overlattices, gram=l.gram, count=count)))
    main.append(("isotropic_subgroups", qs.isotropic_subgroups, (inputs["a1_n"],), {},
                 partial(checks.check_isotropic, space=inputs["a1_n"],
                         count=refs.doubly_even_code_count(ISOTROPIC_RANK))))
    # Raises LimitError: |A| = 4096 is over the brute-force isometry cap.
    main.append(("same_genus", lat.same_genus, inputs["a1_12"], {},
                 partial(expect_equal, want=True, what="A1^12 and a basis change")))
    return spread(main, changes)


def round_genus(ctx, inputs, plan):
    run_plan(ctx, plan)


# --- code-count ------------------------------------------------------------------

# Permuted copies per lexicode, one query each.  The median query falls
# among the (32, 4) copies and the 95th percentile among the (48, 4) ones,
# each inside a cluster of equal-cost queries.
LEXICODES = {(24, 8): 60, (32, 4): 108, (48, 4): 12}
SPAN_LENGTHS = range(1, 13)
ODD_LENGTHS = [r for r in range(13, 24) if r % 8]


def build_codes(seed, workdir):
    rng = random.Random(seed)
    copies = []
    for (n, d), count in LEXICODES.items():
        base = codes.lexicode(n, d)
        for _ in range(count):
            perm = list(range(n))
            rng.shuffle(perm)
            copies.append((n, d, codes.build_code(n, [refs.permute_word(r, perm)
                                                      for r in base.basis])))
    return {"copies": copies}


def references_codes(inputs):
    """The round as a list of (name, function, args, kwargs, check)."""
    closed = refs.sigma_closed_forms()
    sigma = [
        (16, 3, {1: 1, 2: closed[(16, 2)], 3: closed[(16, 3)]}),
        (24, 2, {1: 1, 2: closed[(24, 2)]}),
    ]
    sigma += [(r, 3, {k: refs.sigma_by_spans(r, k) for k in (1, 2, 3)}) for r in SPAN_LENGTHS]
    # the all-ones word has weight r, outside 8Z, so every sigma_k(r) is 0
    sigma += [(r, 3, {1: 0, 2: 0, 3: 0}) for r in ODD_LENGTHS]
    main = [("sigma_profile", codes.sigma_profile, (r,), {"max_k": k, "threads": 1},
             partial(checks.check_sigma, want=want)) for r, k, want in sigma]
    weights = {}
    for n, d, code in inputs["copies"]:
        if (n, d) not in weights:
            rows = list(code.basis)
            weights[(n, d)] = (refs.code_weights(rows, n),
                               refs.code_weights(refs.dual_basis(rows, n), n))
    main += [("lexicode", codes.lexicode, (n, d), {},
              partial(checks.check_lexicode, n=n, d=d, want=weights[(n, d)][0]))
             for n, d in LEXICODES]
    copies = [("code_analysis", analyse_code, (code,), {},
               partial(check_analysis, code=code, n=n, want=weights[(n, d)][0],
                       want_dual=weights[(n, d)][1]))
              for n, d, code in inputs["copies"]]
    return spread(main, copies)


def round_codes(ctx, inputs, plan):
    run_plan(ctx, plan)


def analyse_code(code):
    """One query: the dual, both weight enumerators, and the self-dual
    framing check of the pair (C, C-perp)."""
    dual = codes.dual_code(code)
    return (dual, codes.weight_enumerator(code), codes.weight_enumerator(dual),
            codes.check_framed_conditions(codes.FramedPair(code, dual), self_dual=True))


def check_analysis(got, code, n, want, want_dual):
    dual, weights, dual_weights, report = got
    checks.check_dual(dual, code)
    checks.check_weights(weights, list(code.basis), n, want_dual)
    checks.check_weights(dual_weights, list(dual.basis), n, want)
    checks.check_framed(report, list(code.basis), list(dual.basis), n)


# --- cli-readme --------------------------------------------------------------------

class CliError(Exception):
    pass


def run_cli(workdir, args, save=None):
    """One `python -m genusforge.cli` process, as a user runs it; returns
    the parsed JSON document and writes it to `save` when given."""
    proc = subprocess.run([sys.executable, "-m", "genusforge.cli", *args],
                          cwd=workdir, env=cli_env(), capture_output=True, text=True,
                          timeout=120)
    if proc.returncode != 0:
        raise CliError(f"exit {proc.returncode}: {proc.stdout.strip()} {proc.stderr.strip()}")
    doc = json.loads(proc.stdout)
    if save is not None:
        with open(os.path.join(workdir, save), "w", encoding="utf-8") as fh:
            fh.write(proc.stdout)
    return doc


def cli_env():
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    env["PYTHONPATH"] = src
    return env


# A 2-group: `qs decompose` fails on any space with an odd primary part.
CHAIN = ["A1"] * 4 + ["A3"]
SMALL = ["A1", "A2"]


def build_cli(seed, workdir):
    rng = random.Random(seed)
    files = {"chain_a.json": lattice_from(CHAIN, rng), "chain_b.json": lattice_from(CHAIN, rng),
             "small.json": lattice_from(SMALL, rng)}
    os.makedirs(workdir, exist_ok=True)
    for name, l in files.items():
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(lat.lattice_to_json(l), fh)
    return {"workdir": workdir, "grams": {k: l.gram for k, l in files.items()}, "seed": seed}


def references_cli(inputs):
    grams = inputs["grams"]
    return {"isotropic": refs.isotropic_count_from_gram(grams["chain_a.json"]),
            "closed": refs.sigma_closed_forms(), "theta": refs.unimodular16_theta(2)}


def _isotropic_element(data, rng):
    orders, q, b = data
    den, v = refs.q_numerators(orders, q, b)
    grid = refs.element_grid(orders).tolist()
    return rng.choice([x for x, t in zip(grid, v) if t == 0 and any(x)])


def round_cli(ctx, inputs, expected):
    w = inputs["workdir"]
    grams = inputs["grams"]
    rng = random.Random(inputs["seed"] + 2)

    def cli(args, save=None, check=None):
        return ctx.call("cli", run_cli, w, args, save, check=check)

    # The README examples, in order.
    cli(["lattice", "builtin", "E8"], "e8.json", lambda d: checks.check_lattice_doc(d, 8, 1))
    cli(["lattice", "disc-form", "e8.json"],
        check=lambda d: expect_equal(d, {"orders": [], "q": [], "b": []}, "disc-form of E8"))
    cli(["lattice", "builtin", "A1"], "a1.json", lambda d: checks.check_lattice_doc(d, 1, 2))
    cli(["lattice", "disc-form", "a1.json"], "a1_form.json",
        lambda d: checks.check_form_doc(d, [[2]]))
    cli(["qs", "milgram", "a1_form.json"],
        check=lambda d: expect_equal(d, {"signature_mod8": 1}, "Milgram of A1"))
    cli(["lattice", "builtin", "E8E8"], "a.json", lambda d: checks.check_lattice_doc(d, 16, 1))
    cli(["lattice", "builtin", "D16+"], "b.json", lambda d: checks.check_lattice_doc(d, 16, 1))
    cli(["lattice", "genus-compare", "a.json", "b.json"],
        check=lambda d: expect_equal(d, {"same_genus": True}, "genus of E8^2 and D16+"))
    cli(["lattice", "theta", "a.json", "--terms", "2"],
        check=lambda d: expect_equal(tuple(d["coefficients"]), expected["theta"], "theta"))
    # Not in the README: the genus mate has the same theta series.  The two
    # theta commands are the slowest of a round, so the 95th percentile
    # falls between two commands of equal cost.
    cli(["lattice", "theta", "b.json", "--terms", "2"],
        check=lambda d: expect_equal(tuple(d["coefficients"]), expected["theta"], "theta"))
    cli(["codes", "sigma", "--length", "16", "--dim", "2"],
        check=lambda d: expect_equal(d, {"sigma": expected["closed"][(16, 2)]}, "sigma_2(16)"))

    code = cli(["codes", "lexicode", "--length", "16", "--distance", "4"], "c.json",
               lambda d: checks.check_lexicode(
                   SimpleNamespace(length=d["length"], basis=checks.code_rows(d)), 16, 4))
    if code is None:
        ctx.skip(1)
    else:
        cli(["codes", "check-framed", "c.json", "c.json"],
            check=lambda d: checks.check_framed_doc(d, checks.code_rows(code)))

    # Chain: lattice disc-form into every qs command.
    form = cli(["lattice", "disc-form", "chain_a.json"], "form_a.json",
               lambda d: checks.check_form_doc(d, grams["chain_a.json"]))
    cli(["lattice", "disc-form", "chain_b.json"], "form_b.json",
        lambda d: checks.check_form_doc(d, grams["chain_b.json"]))
    order = abs(refs.det_int(grams["chain_a.json"]))
    sig = len(grams["chain_a.json"]) % 8
    if form is None:
        ctx.skip(6)
    else:
        data = checks.json_space_data(form)
        cli(["qs", "validate", "form_a.json"],
            check=lambda d: expect_equal(d, {"valid": True, "order": order,
                                             "orders": list(data[0])}, "qs validate"))
        cli(["qs", "milgram", "form_a.json"],
            check=lambda d: expect_equal(d, {"signature_mod8": sig}, "qs milgram"))
        cli(["qs", "isotropic", "form_a.json"],
            check=lambda d: expect_equal(d["count"], expected["isotropic"], "isotropic count"))
        g = _isotropic_element(data, rng)
        g_order = refs.span_size(data[0], [g])
        cli(["qs", "quotient", "form_a.json", "--subgroup", json.dumps([g])],
            check=lambda d: checks.check_quotient_doc(d, order, g_order, sig))
        cli(["qs", "isometric", "form_a.json", "form_b.json"],
            check=lambda d: expect_equal(d, {"isometric": True}, "qs isometric"))
        cli(["qs", "decompose", "form_a.json"],
            check=lambda d: checks.check_decompose_doc(d, order))

    # Chain: modcat from-qs into verlinde, genus-dim and milgram.
    small = cli(["lattice", "disc-form", "small.json"], "form_s.json",
                lambda d: checks.check_form_doc(d, grams["small.json"]))
    if small is None:
        ctx.skip(5)
        return
    sdata = checks.json_space_data(small)
    n = math.prod(sdata[0])
    md = cli(["modcat", "from-qs", "form_s.json"], "md.json",
             lambda d: checks.check_pointed_data(modular_data_doc(d), sdata))
    if md is None:
        ctx.skip(4)
        return
    cli(["modcat", "verlinde", "md.json"],
        check=lambda d: checks.check_fusion(SimpleNamespace(table=d["table"]), sdata[0]))
    cli(["modcat", "genus-dim", "md.json", "--g", "2"],
        check=lambda d: expect_equal(d, {"dimension": n ** 2}, "genus-2 dimension"))
    x, y = rng.randrange(n), rng.randrange(n)
    grid = refs.element_grid(sdata[0]).tolist()
    z = refs.element_index(sdata[0], [-a - c for a, c in zip(grid[x], grid[y])])
    cli(["modcat", "genus-dim", "md.json", "--g", "0", "--punctures", str(x), str(y), str(z)],
        check=lambda d: expect_equal(d, {"dimension": 1}, "genus-0 dimension, 3 punctures"))
    rank = len(grams["small.json"])
    cli(["modcat", "milgram", "md.json", "--c", str(rank)],
        check=lambda d: expect_equal(d, {"compatible": True}, "modcat milgram"))


def modular_data_doc(doc):
    """The attributes check_pointed_data reads, from `modcat from-qs` JSON."""
    return SimpleNamespace(n=doc["labels"], dual=doc["dual"],
                           twists=[SimpleNamespace(value=Fraction(t)) for t in doc["twists"]])


WORKLOADS = {
    "modular-data": (build_modular, references_modular, round_modular),
    "genus-extensions": (build_genus, references_genus, round_genus),
    "code-count": (build_codes, references_codes, round_codes),
    "cli-readme": (build_cli, references_cli, round_cli),
}
