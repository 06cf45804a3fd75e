"""Even lattices presented by integral Gram matrices.

A lattice here is always a free Z-module with a chosen basis; the Gram
matrix fixes everything.  Built-in constructors cover the root lattices
used elsewhere: A_n, D_n, E8, E8 (+) E8, and the unimodular extension
D16+ obtained by gluing the all-halves vector onto D16.

Construction runs one fraction-free (Bareiss, Math. Comp. 22, 1968)
symmetric elimination of the Gram matrix, and the lattice keeps it as
`elimination`.  Its diagonal holds the leading principal minors
Delta_1, ..., Delta_n of P^T G P, and the rest of its rows M hold
P^T G P = L D L^T in integers: d_j = Delta_j / Delta_(j-1) and
L_ij = M_ji / Delta_j (1-based, Delta_0 = 1).  P is an integral
congruence of determinant +-1 that the elimination builds only when a
pivot vanishes, as it can on an indefinite Gram such as
U = [[0, 1], [1, 0]]; a positive definite Gram never meets one, so there
P = I.  `det` is Delta_n, the signature counts sign changes among the
minors (`discform.signature`), and Fincke-Pohst reads its factors
(`theta`), so no other pass eliminates the same matrix.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from ..errors import InternalError, ValidationError
from ..exactkernel import freeze, row_lattice_basis

IntMatrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EvenLattice:
    """Integral lattice with even diagonal, presented by its Gram matrix."""

    gram: IntMatrix
    name: str | None = None

    def __post_init__(self) -> None:
        g = self.gram
        n = len(g)
        if n == 0:
            raise ValidationError("lattice needs positive rank")
        if any(len(row) != n for row in g):
            raise ValidationError("Gram matrix must be square")
        if any(not isinstance(x, int) or isinstance(x, bool)
               for row in g for x in row):
            raise ValidationError("Gram entries must be integers")
        for i in range(n):
            for j in range(i + 1, n):
                if g[i][j] != g[j][i]:
                    raise ValidationError(f"Gram matrix not symmetric at ({i},{j})")
        for i in range(n):
            if g[i][i] % 2:
                raise ValidationError(f"diagonal entry ({i},{i}) = {g[i][i]} is odd")
        if self.det == 0:
            raise ValidationError("Gram matrix is singular")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @cached_property
    def elimination(self) -> IntMatrix:
        """Row j holds M_jj, ..., M_j(n-1) of the Bareiss elimination of
        P^T G P (0-based), with M_jj = Delta_(j+1), its leading principal
        minor of order j + 1.  A vanishing pivot M_jj is replaced by an
        integral congruence on basis vectors j, ..., n-1: a later nonzero
        working diagonal entry is swapped in, or else e_j <- e_j + e_t for
        some M_jt != 0 makes the pivot 2 M_jt.  Both keep the working
        entries the Bareiss minors of the new Gram, so the exact division
        goes on.  When the whole working row j is zero, G is singular and
        the rows stop before it; a nonsingular Gram has n rows."""
        # Row i holds the entries (i, t), t >= i, of the working matrix; by
        # symmetry the entry (i, j) below pivot j is entry (j, i) of row j.
        m = [row[i:] for i, row in enumerate(self.gram)]
        n, prev = len(m), 1
        for j in range(n):
            if m[j][0] == 0:
                w = [[m[min(i, t)][abs(t - i)] for t in range(j, n)] for i in range(j, n)]
                s = next((s for s in range(1, n - j) if w[s][s]), None)
                t = s or next((t for t in range(1, n - j) if w[0][t]), None)
                if t is None:
                    return tuple(m[:j])
                if s:
                    w[0], w[s] = w[s], w[0]
                    for row in w:
                        row[0], row[s] = row[s], row[0]
                else:
                    w[0] = [a + b for a, b in zip(w[0], w[t])]
                    for row in w:
                        row[0] += row[t]
                m[j:] = [tuple(row[i:]) for i, row in enumerate(w)]
            head = m[j]
            piv = head[0]
            for k in range(1, len(head)):
                a = head[k]
                m[j + k] = tuple([(piv * x - a * y) // prev
                                  for x, y in zip(m[j + k], head[k:])])
            prev = piv
        return tuple(m)

    @property
    def det(self) -> int:
        rows = self.elimination
        return rows[-1][0] if len(rows) == self.rank else 0

    def inner(self, x: Sequence[int], y: Sequence[int]) -> int:
        return sum(xi * gij * yj
                   for xi, row in zip(x, self.gram)
                   for gij, yj in zip(row, y))

    def norm(self, x: Sequence[int]) -> int:
        return self.inner(x, x)

    def __repr__(self) -> str:
        label = self.name or "?"
        return f"EvenLattice({label}, rank={self.rank}, det={self.det})"


def build_lattice(gram: Sequence[Sequence[int]], name: str | None = None) -> EvenLattice:
    return EvenLattice(freeze(gram), name)


def _dynkin_gram(n: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def lattice_a(n: int) -> EvenLattice:
    if n < 1:
        raise ValidationError("A_n needs n >= 1")
    return build_lattice(_dynkin_gram(n, [(i, i + 1) for i in range(n - 1)]), f"A{n}")


def lattice_d(n: int) -> EvenLattice:
    # D2 and D3 coincide with A1+A1 and A3; the Gram below is valid from n = 2.
    if n < 2:
        raise ValidationError("D_n needs n >= 2")
    edges = [(i, i + 1) for i in range(n - 2)]
    if n > 2:
        edges.append((n - 3, n - 1))
    return build_lattice(_dynkin_gram(n, edges), f"D{n}")


def lattice_e8() -> EvenLattice:
    # Chain 0-1-2-3-4-5-6 with node 7 hanging off node 4.
    edges = [(i, i + 1) for i in range(6)] + [(4, 7)]
    return build_lattice(_dynkin_gram(8, edges), "E8")


def lattice_e8e8() -> EvenLattice:
    e8 = lattice_e8().gram
    n = 16
    g = [[0] * n for _ in range(n)]
    for i in range(8):
        for j in range(8):
            g[i][j] = e8[i][j]
            g[i + 8][j + 8] = e8[i][j]
    return build_lattice(g, "E8E8")


def lattice_d16_plus() -> EvenLattice:
    """D16 extended by the all-halves glue vector (1/2, ..., 1/2).

    Works in the coordinate model D16 = {x in Z^16 : sum(x) even} with the
    standard pairing.  The generators (all doubled so they live in Z^16)
    are saturated to a 16-row basis; the Gram matrix then comes from the
    standard inner product divided back out.
    """
    n = 16
    doubled = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = 2, -2
        doubled.append(row)
    last = [0] * n
    last[n - 2] = last[n - 1] = 2
    doubled.append(last)
    doubled.append([1] * n)  # twice the glue vector
    basis = row_lattice_basis(doubled)
    if len(basis) != n:
        raise InternalError("D16+ generators must span rank 16")
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            v = sum(a * b for a, b in zip(basis[i], basis[j]))
            if v % 4:
                raise InternalError("D16+ basis does not pair integrally")
            gram[i][j] = v // 4
    lat = build_lattice(gram, "D16+")
    if lat.det != 1:
        raise InternalError("D16+ must be unimodular")
    return lat


_SERIES = {"A": (lattice_a, 1), "D": (lattice_d, 2)}


def builtin_lattice(name: str) -> EvenLattice:
    """Look up a built-in lattice by name: A<n>, D<n>, E8, E8E8, D16+."""
    key = name.strip().upper().replace(" ", "")
    if key in ("E8E8", "E8+E8", "E8XE8", "E8^2"):
        return lattice_e8e8()
    if key in ("D16+", "D16PLUS"):
        return lattice_d16_plus()
    if key == "E8":
        return lattice_e8()
    m = re.fullmatch(r"([AD])(\d+)", key)
    if m:
        ctor, low = _SERIES[m.group(1)]
        n = int(m.group(2))
        if n < low:
            raise ValidationError(f"{m.group(1)}_n needs n >= {low}")
        return ctor(n)
    raise ValidationError(f"unknown built-in lattice {name!r}")


def lattice_to_json(l: EvenLattice) -> dict:
    return {"name": l.name or "", "gram": [list(row) for row in l.gram]}


def lattice_from_json(doc: dict) -> EvenLattice:
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValidationError("lattice document needs a 'gram' field")
    gram = doc["gram"]
    if (not isinstance(gram, list)
            or not all(isinstance(row, list) for row in gram)):
        raise ValidationError("'gram' must be a list of rows")
    name = doc.get("name") or None
    if name is not None and not isinstance(name, str):
        raise ValidationError("'name' must be a string")
    return build_lattice(gram, name)
