"""Finite quadratic spaces (A, q) in one integer encoding.

A space is a finite abelian group in invariant-factor form d_1 | ... | d_n,
a level N and a symmetric integer matrix G on the generators, with

    q(x) = x^T G x / N  mod 2,        b(x, y) = x^T G y / N  mod 1.

The encoding is canonical: N is minimal, the diagonal of G is reduced
mod 2N and the off-diagonal mod N, so two spaces are equal exactly when
their generators carry equal values.  The element table lists the elements
in `elements()` order.  Its coordinates and element orders, and the radix,
depend on the invariant factors alone: they are computed once per factor
tuple and shared read-only by every space on that group, and the store
holds them by weak reference, so they live while some space does.  A space
computes only its q numerators, in one numpy pass, and caches them.  All
cached arrays are read-only.  `build_space` checks rational generator data
and encodes it; `space_from_gram` takes integer data, re-presents generator
orders that do not form a divisibility chain, and rejects degenerate forms.
Subquotients that are nondegenerate by construction (C-perp/C, primary
parts) and discriminant forms go through the same encoding without the
nondegeneracy test, which costs a Smith normal form.  JSON and `repr` write
q and b from G and N; the phase views `q_gen` and `b_matrix` are built on
each read, and no library code reads them.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Integral
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

from ..errors import ConsistencyError, DegenerateFormError, ValidationError
from ..exactkernel import as_fraction, fraction_str, integer_kernel, smith_normal_form
from .present import present_subquotient

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant factors d_1 | d_2 | ... | d_n, each at least 2."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        d = self.invariant_factors
        if any(not isinstance(x, int) or x < 2 for x in d):
            raise ValidationError("invariant factors must be integers >= 2")
        if any(d[i + 1] % d[i] != 0 for i in range(len(d) - 1)):
            raise ValidationError(f"invariant factors {d} violate the divisibility chain")

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def reduce(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.rank:
            raise ValidationError(f"expected {self.rank} coordinates, got {len(coords)}")
        if any(isinstance(c, bool) or not isinstance(c, Integral) for c in coords):
            raise ValidationError(f"coordinates must be integers: {coords}")
        return tuple(int(c) % d for c, d in zip(coords, self.invariant_factors))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.invariant_factors))

    def neg(self, x: Sequence[int]) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.invariant_factors))

    def elements(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(d) for d in self.invariant_factors))


class ElementTable(NamedTuple):
    """One row per element, in `elements()` order."""

    coords: np.ndarray  # (|A|, n) coordinates
    q: np.ndarray       # numerator of q(x) over the level, in [0, 2N)
    order: np.ndarray   # element orders


@dataclass(frozen=True)
class FiniteQuadraticSpace:
    group: FiniteAbelianGroup
    level: int
    gram: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return self.group.rank

    @property
    def order(self) -> int:
        return self.group.order

    @property
    def orders(self) -> tuple[int, ...]:
        return self.group.invariant_factors

    @property
    def q_gen(self) -> tuple[PhaseMod2, ...]:
        """q on the generators as phases mod 2, a view of `gram` and `level`
        for callers that want exact values (`bench/checks.py`)."""
        from ..exactkernel import PhaseMod2
        return tuple(PhaseMod2(Fraction(self.gram[i][i], self.level))
                     for i in range(self.rank))

    @property
    def b_matrix(self) -> tuple[tuple[PhaseMod1, ...], ...]:
        """b on pairs of generators as phases mod 1, a view like `q_gen`."""
        from ..exactkernel import PhaseMod1
        return tuple(tuple(PhaseMod1(Fraction(x, self.level)) for x in row)
                     for row in self.gram)

    @cached_property
    def gram_array(self) -> np.ndarray:
        import numpy as np
        return _frozen(np.array(self.gram, dtype=np.int64).reshape(self.rank, self.rank))

    @cached_property
    def _group_arrays(self) -> _GroupArrays:
        arrays = _GROUP_ARRAYS.get(self.orders)
        if arrays is None:
            arrays = _GROUP_ARRAYS[self.orders] = _GroupArrays(self.orders)
        return arrays

    @cached_property
    def orders_array(self) -> np.ndarray:
        """The invariant factors; read-only, like every cached array."""
        return self._group_arrays.orders

    @cached_property
    def table(self) -> ElementTable:
        group = self._group_arrays
        two_n = 2 * self.level
        q = ((group.coords @ self.gram_array) % two_n * group.coords).sum(axis=1) % two_n
        return ElementTable(group.coords, _frozen(q), group.order)

    @cached_property
    def radix(self) -> np.ndarray:
        """Weights of the element index: x is row x @ radix of `table`."""
        return self._group_arrays.radix

    def elements(self) -> Iterator[tuple[int, ...]]:
        return self.group.elements()

    def generators(self) -> tuple[tuple[int, ...], ...]:
        n = self.rank
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def __repr__(self) -> str:
        qs = ", ".join(space_to_json(self)["q"])
        return f"FiniteQuadraticSpace(orders={list(self.orders)}, q=[{qs}])"


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _GroupArrays:
    """The arrays of a space that depend on its invariant factors alone:
    element coordinates and orders, radix and the factors themselves."""

    def __init__(self, orders: tuple[int, ...]):
        import numpy as np
        self.orders = _frozen(np.array(orders, dtype=np.int64))
        # Freezing the owner of the data makes every view of it read-only too.
        coords = _frozen(np.indices(orders, dtype=np.int64))
        self.coords = coords = coords.reshape(len(orders), math.prod(orders)).T
        self.order = _frozen(np.lcm.reduce(self.orders // np.gcd(coords, self.orders),
                                           axis=1, initial=1))
        self.radix = _frozen(np.array([math.prod(orders[i + 1:]) for i in range(len(orders))],
                                      dtype=np.int64))


# One entry per group, alive while some space holds it (`_group_arrays`).
_GROUP_ARRAYS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _nondegenerate(orders, level, gram) -> tuple[int, ...] | None:
    """None if nondegenerate, else a witness annihilated by b."""
    n = len(orders)
    if n == 0:
        return None
    diag = smith_normal_form(gram).diagonal
    image = math.prod(level // math.gcd(level, dk) for dk in diag)
    if image == math.prod(orders):
        return None
    # Recover a witness: x with x G = 0 mod N, x nonzero mod orders.
    stacked = tuple(
        tuple([gram[i][j] for i in range(n)] + [level if t == j else 0 for t in range(n)])
        for j in range(n))
    for vec in integer_kernel(stacked):
        x = tuple(vec[i] % orders[i] for i in range(n))
        if any(x):
            return x
    raise AssertionError("degenerate form without witness")  # pragma: no cover


def _invariant_factors(orders, gram):
    """Re-present (orders, G) with orders in a divisibility chain; orders
    above 1 that already form one in index order come back unchanged."""
    if all(d > 1 for d in orders) and all(b % a == 0 for a, b in zip(orders, orders[1:])):
        return orders, gram
    keep = sorted((i for i, d in enumerate(orders) if d > 1), key=lambda i: orders[i])
    chain = [orders[i] for i in keep]
    if all(chain[i + 1] % chain[i] == 0 for i in range(len(chain) - 1)):
        return chain, [[gram[i][j] for j in keep] for i in keep]
    keep.sort()
    n = len(keep)
    gens = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
    return present_subquotient([orders[i] for i in keep],
                               [[gram[i][j] for j in keep] for i in keep], gens)


def _canonical_space(orders: Sequence[int], level: int,
                     gram: Sequence[Sequence[int]]) -> FiniteQuadraticSpace:
    """The consistency checks and the canonical encoding of `space_from_gram`,
    without its nondegeneracy test: for forms nondegenerate by construction."""
    n, two_level = len(orders), 2 * level
    for i, d in enumerate(orders):
        if d * d * gram[i][i] % two_level:
            raise ConsistencyError(
                f"q[{i}] = {Fraction(gram[i][i], level) % 2} is not defined on a "
                f"generator of order {d}")
    for i, d in enumerate(orders):
        for j, x in enumerate(gram[i][:n]):
            if d * x % level:
                raise ConsistencyError(
                    f"b[{i}][{j}] = {Fraction(x, level) % 1} is not defined "
                    f"for generator order {d}")
    orders, gram = _invariant_factors(orders, gram)
    g = math.gcd(level, *itertools.chain.from_iterable(gram))
    level //= g
    gram = tuple(tuple(x // g % level if i != j else x // g % (2 * level)
                       for j, x in enumerate(row)) for i, row in enumerate(gram))
    return FiniteQuadraticSpace(FiniteAbelianGroup(tuple(orders)), level, gram)


def space_from_gram(orders: Sequence[int], level: int,
                    gram: Sequence[Sequence[int]]) -> FiniteQuadraticSpace:
    """Validated canonical space with q(x) = x^T G x / level mod 2 and
    b(x, y) = x^T G y / level mod 1 on generators of the given orders.

    The generators are re-presented in invariant-factor form when the
    orders do not already form a divisibility chain.
    """
    s = _canonical_space(orders, level, gram)
    witness = _nondegenerate(s.orders, s.level, s.gram)
    if witness is not None:
        raise DegenerateFormError(
            f"form is degenerate: {witness} pairs to zero with every generator")
    return s


def build_space(group: FiniteAbelianGroup | Sequence[int],
                q_gen: Iterable[Fraction | int | str],
                b_matrix: Sequence[Sequence] | None = None) -> FiniteQuadraticSpace:
    """Validated space; generator data is canonicalized if the orders do not
    already form a divisibility chain.

    When b_matrix is omitted the generators are taken orthogonal, with the
    diagonal forced by polarization (b_ii = q_i mod 1).
    """
    if isinstance(group, FiniteAbelianGroup):
        orders = list(group.invariant_factors)
    else:
        if any(isinstance(d, bool) or not isinstance(d, Integral) for d in group):
            raise ValidationError(f"generator orders must be integers: {list(group)}")
        orders = [int(d) for d in group]
        if any(d < 1 for d in orders):
            raise ValidationError("generator orders must be positive")
    q = [as_fraction(x) % 2 for x in q_gen]
    n = len(orders)
    if len(q) != n:
        raise ValidationError(f"got {len(q)} q-values for {n} generators")
    if b_matrix is None:
        b = [[q[i] % 1 if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    else:
        b = [[as_fraction(x) % 1 for x in row] for row in b_matrix]
        if len(b) != n or any(len(row) != n for row in b):
            raise ValidationError("b matrix shape does not match generator count")
    for i in range(n):
        for j in range(i):
            if b[i][j] != b[j][i]:
                raise ConsistencyError(f"b is not symmetric at generator pair ({i}, {j})")
        # Polarization, b = (q(x+y) - q(x) - q(y))/2, at x = y = generator i.
        if b[i][i] != q[i] % 1:
            raise ConsistencyError(
                f"polarization fails at generator pair ({i}, {i}): "
                f"b = {b[i][i]} but (q(x+y) - q(x) - q(y))/2 = {q[i] % 1}")
    level = math.lcm(*(x.denominator for x in q),
                     *(x.denominator for row in b for x in row))
    gram = [[int((q[i] if i == j else b[i][j]) * level) for j in range(n)] for i in range(n)]
    return space_from_gram(orders, level, gram)


def subquotient(s: FiniteQuadraticSpace, gens: Sequence[Sequence[int]],
                rels: Sequence[Sequence[int]] = ()) -> FiniteQuadraticSpace:
    """The space span(gens)/span(rels) with the form of s; the caller makes
    sure rels is isotropic and orthogonal to gens, and that the result is
    nondegenerate (C-perp/C, primary parts, orthogonal complements), so it
    is not tested again."""
    orders, gram = present_subquotient(s.orders, s.gram, gens, rels)
    return _canonical_space(orders, s.level, gram)


def trivial_space() -> FiniteQuadraticSpace:
    return FiniteQuadraticSpace(FiniteAbelianGroup(()), 1, ())


def direct_sum(s1: FiniteQuadraticSpace, s2: FiniteQuadraticSpace) -> FiniteQuadraticSpace:
    level = math.lcm(s1.level, s2.level)
    n1, n2 = s1.rank, s2.rank
    gram = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for s, off in ((s1, 0), (s2, n1)):
        scale = level // s.level
        for i, row in enumerate(s.gram):
            gram[off + i][off:off + s.rank] = [x * scale for x in row]
    return space_from_gram(list(s1.orders) + list(s2.orders), level, gram)


def space_to_json(s: FiniteQuadraticSpace) -> dict:
    return {
        "orders": list(s.orders),
        "q": [fraction_str(s.gram[i][i] % (2 * s.level), s.level) for i in range(s.rank)],
        "b": [[fraction_str(x % s.level, s.level) for x in row] for row in s.gram],
    }


def space_from_json(doc: dict) -> FiniteQuadraticSpace:
    if not isinstance(doc, dict) or "orders" not in doc or "q" not in doc:
        raise ValidationError("space JSON needs 'orders' and 'q' fields")
    orders, q, b = doc["orders"], doc["q"], doc.get("b")
    if not (isinstance(orders, list) and isinstance(q, list) and (b is None or (
            isinstance(b, list) and all(isinstance(row, list) for row in b)))):
        raise ValidationError("space JSON needs lists 'orders' and 'q', and 'b' a list of rows")
    return build_space(orders, q, b)
