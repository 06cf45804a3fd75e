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
from ..exactkernel import int_inv_unimodular, integer_kernel, smith_normal_form


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
    res = smith_normal_form(tuple(tuple(r) for r in relations))
    rank = res.rank
    if rank < m:
        raise InternalError("subgroup presentation is not finite")
    v_inv = int_inv_unimodular(res.v)
    new_orders: list[int] = []
    w: list[list[int]] = []
    for k in range(m):
        d = res.d[k][k]
        if d == 1:
            continue
        combo = v_inv[k]
        vec = [0] * n
        for j in range(m):
            if combo[j]:
                for t in range(n):
                    vec[t] += combo[j] * gen_vectors[j][t]
        new_orders.append(d)
        w.append([vec[t] % orders[t] for t in range(n)])
    wg = [[sum(a * row[t] for a, row in zip(x, gram)) for t in range(n)] for x in w]
    return (tuple(new_orders),
            tuple(tuple(sum(a * b for a, b in zip(x, y)) for y in w) for x in wg))
