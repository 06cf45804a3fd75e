"""Presentation of subquotients in the integer encoding of a space.

Works on (orders, G) data, so it can run before a validated space exists:
span(gens)/span(rels) is re-presented on new generators W in
invariant-factor form, and the form on them is W G W^T at the same level.
space.py builds on this to canonicalize arbitrary generator data, and to
form quotients and primary parts.
"""

from __future__ import annotations

from typing import Sequence

from ..errors import InternalError
from ..exactkernel import integer_kernel, mat_mul, smith_normal_form, transpose


def present_subquotient(orders: Sequence[int], gram: Sequence[Sequence[int]],
                        gen_vectors: Sequence[Sequence[int]],
                        rel_vectors: Sequence[Sequence[int]] = ()
                        ) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Present span(gen_vectors)/span(rel_vectors) in invariant-factor form.

    Returns (new_orders, W G W^T), where row k of W is new generator k as
    an integer vector in the ambient coordinates.  The caller is
    responsible for the induced form being well defined (rel_vectors
    isotropic and orthogonal to the generators).
    """
    n = len(orders)
    m = len(gen_vectors)
    if m == 0 or n == 0:
        return (), ()
    # Relation lattice: a in Z^m with sum a_i v_i in span(rels) + diag(orders).
    cols: list[list[int]] = []
    for v in gen_vectors:
        cols.append(list(v))
    for r in rel_vectors:
        cols.append(list(r))
    for k in range(n):
        cols.append([orders[k] if i == k else 0 for i in range(n)])
    stacked = tuple(tuple(col[i] for col in cols) for i in range(n))
    kernel = integer_kernel(stacked)
    relations = [vec[:m] for vec in kernel]
    if not relations:
        relations = [[0] * m]
    res = smith_normal_form(tuple(tuple(r) for r in relations), "u")
    rank = res.rank
    if rank < m:
        raise InternalError("subgroup presentation is not finite")
    # U R V = D, so row k of U R is d_k times row k of V^(-1): new generator
    # k is that row of V^(-1) applied to the old generators.
    diag = res.diagonal
    kept = [k for k in range(m) if diag[k] != 1]
    new_orders = tuple(diag[k] for k in kept)
    scaled = mat_mul([res.u[k] for k in kept], relations)
    if any(x % d for row, d in zip(scaled, new_orders) for x in row):
        raise InternalError("row of U R is not divisible by its invariant factor")
    combos = [[x // d for x in row] for row, d in zip(scaled, new_orders)]
    w = [[x % o for x, o in zip(row, orders)] for row in mat_mul(combos, gen_vectors)]
    return new_orders, mat_mul(mat_mul(w, gram), transpose(w))
