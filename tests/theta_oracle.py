"""The node-by-node Fincke-Pohst recursion and the tuple scan for simple
roots, kept as the oracle for the level-at-a-time enumeration and the
Gram-matrix root test in `genusforge.lattice`.

`oracle_enumerate` descends one coordinate at a time in Python, keeping
the centres in a list it updates and restores around each child, and
emits the last coordinate's whole interval as a block of candidates.
`oracle_root_system` takes the roots that are lexicographically positive
(first nonzero coordinate positive), calls one simple when no difference
with another positive root is itself positive, and names each component
of the Dynkin graph by walking its arms from the branch node.
`fraction_ldl` is the LDL^T in `Fraction` arithmetic, the oracle for the
fraction-free elimination that `EvenLattice.elimination` keeps and
Fincke-Pohst reads.
"""

import math
from fractions import Fraction

import numpy as np

from genusforge.errors import InternalError, NotPositiveDefiniteError
from genusforge.lattice import build_lattice

_SLACK = 1e-6
_FLUSH_ROWS = 1 << 16
_EXPECTED_COUNTS = {"A": lambda n: n * (n + 1),
                    "D": lambda n: 2 * n * (n - 1),
                    "E": {6: 72, 7: 126, 8: 240}}


def fraction_ldl(gram):
    """G = L D L^T with L unit lower triangular, D diagonal positive."""
    n = len(gram)
    d = [Fraction(0)] * n
    low = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        acc = Fraction(gram[j][j])
        for k in range(j):
            acc -= low[j][k] * low[j][k] * d[k]
        if acc <= 0:
            raise NotPositiveDefiniteError(
                f"Gram matrix is not positive definite (pivot {j})")
        d[j] = acc
        low[j][j] = Fraction(1)
        for i in range(j + 1, n):
            val = Fraction(gram[i][j])
            for k in range(j):
                val -= low[i][k] * low[j][k] * d[k]
            low[i][j] = val / d[j]
    return d, low


def oracle_enumerate(l, max_norm, store):
    """({norm: #vectors} for 0 < norm <= max_norm, vectors or None), both
    signs of each +/- pair counted and stored."""
    n = l.rank
    gram = l.gram
    d, low = fraction_ldl(gram)
    df = [float(x) for x in d]
    lf = [[float(x) for x in row] for row in low]
    gnp = np.array(gram, dtype=np.int64)
    counts = {}
    kept_blocks = []
    blocks = []
    pending = 0
    c = [0.0] * n
    x = [0] * n

    def flush():
        nonlocal blocks, pending
        if not blocks:
            return
        cand = np.concatenate(blocks)
        blocks = []
        pending = 0
        norms = np.einsum("ij,jk,ik->i", cand, gnp, cand)
        keep = (norms > 0) & (norms <= max_norm)
        vals, reps = np.unique(norms[keep], return_counts=True)
        for v, r in zip(vals, reps):
            if int(v) % 2:
                raise InternalError("odd vector norm in an even lattice")
            counts[int(v)] = counts.get(int(v), 0) + 2 * int(r)
        if store and keep.any():
            kept_blocks.append(cand[keep])

    def descend(j, rem, zero_prefix):
        nonlocal pending
        if rem < -_SLACK:
            return
        radius = math.sqrt(max(rem, 0.0) / df[j]) + 1e-9
        lo = math.ceil(-c[j] - radius)
        hi = math.floor(-c[j] + radius)
        if zero_prefix:
            lo = max(lo, 0)
        if hi < lo:
            return
        if j == 0:
            block = np.empty((hi - lo + 1, n), dtype=np.int64)
            block[:, 0] = np.arange(lo, hi + 1)
            for t in range(1, n):
                block[:, t] = x[t]
            blocks.append(block)
            pending += len(block)
            if pending >= _FLUSH_ROWS:
                flush()
            return
        for v in range(lo, hi + 1):
            y = v + c[j]
            rem2 = rem - df[j] * y * y
            if rem2 < -_SLACK:
                continue
            x[j] = v
            for t in range(j):
                c[t] += lf[j][t] * v
            descend(j - 1, rem2, zero_prefix and v == 0)
            for t in range(j):
                c[t] -= lf[j][t] * v
        x[j] = 0

    if max_norm > 0:
        descend(n - 1, float(max_norm), True)
        flush()
    vectors = None
    if store:
        if kept_blocks:
            half = np.concatenate(kept_blocks)
            vectors = np.concatenate([half, -half])
        else:
            vectors = np.empty((0, n), dtype=np.int64)
    return counts, vectors


def oracle_short_vectors(l, max_norm):
    _, vectors = oracle_enumerate(l, max_norm, store=True)
    return sorted(tuple(int(t) for t in row) for row in vectors)


def oracle_theta(l, k):
    counts, _ = oracle_enumerate(l, 2 * k, store=False)
    return (1,) + tuple(counts.get(2 * m, 0) for m in range(1, k + 1))


def oracle_simple_roots(l):
    """The simple roots as a set of tuples (empty for a rootless lattice)."""
    roots = oracle_short_vectors(l, 2)
    zero = (0,) * l.rank
    positive = [r for r in roots if r > zero]
    pos_set = set(positive)
    return {r for r in positive
            if not any(tuple(a - b for a, b in zip(r, q)) in pos_set
                       for q in positive)}


def _classify_component(nodes, adj) -> tuple[str, int]:
    n = len(nodes)
    degrees = {v: len(adj[v]) for v in nodes}
    if any(d > 3 for d in degrees.values()):
        raise InternalError("degree > 3 in a simply laced Dynkin diagram")
    branches = [v for v in nodes if degrees[v] == 3]
    if not branches:
        return ("A", n)
    if len(branches) > 1:
        raise InternalError("two branch nodes in one Dynkin component")
    hub = branches[0]
    arms = []
    for start in adj[hub]:
        length = 1
        prev, cur = hub, start
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            if len(nxt) > 1:
                raise InternalError("branch inside a Dynkin arm")
            prev, cur = cur, nxt[0]
            length += 1
        arms.append(length)
    arms.sort()
    if arms[0] != 1:
        raise InternalError("Dynkin branch without a length-1 arm")
    if arms[1] == 1:
        return ("D", arms[2] + 3)
    if arms[1] == 2 and arms[2] in (2, 3, 4):
        return ("E", arms[2] + 4)
    raise InternalError(f"arm lengths {arms} are not an ADE shape")


def oracle_root_system(l):
    """(sorted components, root count) from the simple roots above."""
    simple = sorted(oracle_simple_roots(l))
    adj = {i: [j for j in range(len(simple))
               if j != i and l.inner(simple[i], simple[j]) == -1]
           for i in range(len(simple))}
    components = []
    seen = set()
    for start in range(len(simple)):
        if start in seen:
            continue
        comp, queue = [start], [start]
        seen.add(start)
        while queue:
            for w in adj[queue.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    queue.append(w)
        components.append(_classify_component(comp, adj))
    count = sum(_EXPECTED_COUNTS[k][r] if k == "E" else _EXPECTED_COUNTS[k](r)
                for k, r in components)
    return tuple(sorted(components)), count


def lattice_basis_change(l, rng):
    """l on the basis U e with U unimodular: up to rank(l) moves
    e_i += +/- e_j, then a signed permutation."""
    n = l.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randrange(n + 1) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((-1, 1))
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    u = [[s * t for t in u[i]] for s, i in zip(signs, rng.sample(range(n), n))]
    gram = [[sum(a * g * b for a, row in zip(ui, l.gram) for g, b in zip(row, uj))
             for uj in u] for ui in u]
    return build_lattice(gram)


def orthogonal_sum(lattices):
    """The orthogonal sum of the given lattices, as one block-diagonal Gram."""
    n = sum(l.rank for l in lattices)
    gram = [[0] * n for _ in range(n)]
    at = 0
    for l in lattices:
        for i, row in enumerate(l.gram):
            gram[at + i][at:at + l.rank] = row
        at += l.rank
    return build_lattice(gram)
