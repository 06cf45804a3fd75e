"""Binary linear codes as bitmask rows, canonicalized by RREF.

Coordinates are bits: coordinate i of a word is bit i of its integer.
The JSON form uses bitstrings whose first character is coordinate 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import TYPE_CHECKING

from ..errors import LimitError, ValidationError

if TYPE_CHECKING:
    import numpy as np


def _rref_rows(rows, length):
    """Reduced row echelon form, pivots at the lowest set bit, rows sorted."""
    basis: list[int] = []
    for row in rows:
        if row >> length:
            raise ValidationError(f"word {row:#x} exceeds length {length}")
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            low = row & -row
            basis = [b ^ row if b & low else b for b in basis]
            basis.append(row)
    basis.sort(key=lambda b: b & -b)
    return tuple(basis)


@dataclass(frozen=True)
class BinaryCode:
    """Linear code; basis is the RREF, so equal codes compare equal."""

    length: int
    basis: tuple[int, ...]

    def __post_init__(self):
        if isinstance(self.length, bool) or not isinstance(self.length, int):
            raise ValidationError("code length must be an integer")
        if not 0 <= self.length <= 64:
            raise ValidationError("code length must be between 0 and 64")
        # RREF in one pass from the last row up: nonzero rows, pivots (lowest
        # set bits) strictly increasing, and no pivot bit set in another row.
        # Only earlier rows can hold a later pivot, since every row lies on
        # and above its own pivot.
        if not isinstance(self.basis, tuple):
            raise ValidationError("basis rows are not in reduced echelon form")
        later, above = 0, 1 << self.length
        for row in reversed(self.basis):
            if row >> self.length:
                raise ValidationError(f"word {row:#x} exceeds length {self.length}")
            pivot = row & -row
            if not row or pivot >= above or row & later:
                raise ValidationError("basis rows are not in reduced echelon form")
            later, above = later | pivot, pivot

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, word: int) -> int:
        """Residue of the word modulo the code."""
        for b in self.basis:
            if word & (b & -b):
                word ^= b
        return word

    def __contains__(self, word: int) -> bool:
        return self.reduce(word) == 0

    def words(self):
        """All 2^dim codewords; guarded against huge codes."""
        return _word_array(self).tolist()

    @cached_property
    def _dual(self) -> BinaryCode:
        """All words orthogonal to the code, built once; it keeps this code as its dual."""
        pivots = [b & -b for b in self.basis]
        rows = [1 << f | sum(p for b, p in zip(self.basis, pivots) if b >> f & 1)
                for f in range(self.length) if not sum(pivots) >> f & 1]
        out = build_code(self.length, rows)
        out.__dict__["_dual"] = self
        return out

    def __repr__(self) -> str:
        return f"BinaryCode(length={self.length}, dim={self.dim})"


def _word_array(code: BinaryCode) -> np.ndarray:
    """The codewords as uint64, the span of the first i rows first."""
    import numpy as np
    if code.dim > 22:
        raise LimitError(f"enumerating 2^{code.dim} codewords refused")
    out = np.zeros(1 << code.dim, dtype=np.uint64)
    for i, b in enumerate(code.basis):
        out[1 << i: 2 << i] = out[: 1 << i] ^ np.uint64(b)
    return out


def build_code(length: int, rows) -> BinaryCode:
    return BinaryCode(length, _rref_rows(rows, length))


def dual_code(code: BinaryCode) -> BinaryCode:
    """All words orthogonal to the code; dim is length - dim."""
    return code._dual


def contains_allones(code: BinaryCode) -> bool:
    return ((1 << code.length) - 1) in code


def is_even(code: BinaryCode) -> bool:
    """All codeword weights even; equivalent to even basis weights."""
    return all(b.bit_count() % 2 == 0 for b in code.basis)


def weights_divisible_by_8(code: BinaryCode) -> bool:
    """Exact check that every codeword weight is a multiple of 8.

    By inclusion-exclusion, wt of a sum of basis rows is sum of wt minus
    2*(pair overlaps) plus 4*(triple overlaps) minus multiples of 8, so
    the conditions wt = 0 (8), pair overlaps = 0 (4), triple overlaps
    = 0 (2) on the basis are necessary and sufficient.
    """
    b = code.basis
    k = len(b)
    if any(x.bit_count() % 8 for x in b):
        return False
    for i in range(k):
        for j in range(i + 1, k):
            if (b[i] & b[j]).bit_count() % 4:
                return False
            for l in range(j + 1, k):
                if (b[i] & b[j] & b[l]).bit_count() % 2:
                    return False
    return True


def _direct_enumerator(code: BinaryCode) -> list[int]:
    import numpy as np
    return np.bincount(np.bitwise_count(_word_array(code)), minlength=code.length + 1).tolist()


@lru_cache(maxsize=None)
def _krawtchouk(r: int) -> tuple[tuple[int, ...], ...]:
    """K[j][i] = coefficient of x^j in (1 - x)^i (1 + x)^(r - i)."""
    cols = [[comb(r, j) for j in range(r + 1)]]
    for _ in range(r):
        # times (1 - x) / (1 + x): new[j] + new[j - 1] = old[j] - old[j - 1]
        old, new = cols[-1], [1]
        for j in range(1, r + 1):
            new.append(old[j] - old[j - 1] - new[j - 1])
        cols.append(new)
    return tuple(zip(*cols))


def weight_enumerator(code: BinaryCode) -> list[int]:
    """W[j] = number of codewords of weight j; sum is 2^dim.

    Large codes are handled through the dual side and the MacWilliams
    transform, W[j] = sum_i K[j][i] W_dual[i] / 2^(r - k), which stays
    exact in integers.
    """
    r = code.length
    k = code.dim
    if k <= r - k or r - k > 22:
        return _direct_enumerator(code)
    wd = [(i, w) for i, w in enumerate(_direct_enumerator(dual_code(code))) if w]
    out = []
    for row in _krawtchouk(r):
        q, rem = divmod(sum(row[i] * w for i, w in wd), 1 << (r - k))
        if rem:
            raise ValidationError("MacWilliams transform came out fractional")
        out.append(q)
    return out


def code_to_json(code: BinaryCode) -> dict:
    return {
        "length": code.length,
        "basis": ["".join("1" if b >> i & 1 else "0"
                          for i in range(code.length)) for b in code.basis],
    }


def code_from_json(doc) -> BinaryCode:
    if not isinstance(doc, dict) or "length" not in doc or "basis" not in doc:
        raise ValidationError("code document needs 'length' and 'basis'")
    length = doc["length"]
    if isinstance(length, bool) or not isinstance(length, int):
        raise ValidationError("code length must be an integer")
    if not isinstance(doc["basis"], list):
        raise ValidationError("code basis must be a list of bitstrings")
    rows = []
    for s in doc["basis"]:
        if not isinstance(s, str) or len(s) != length or set(s) - {"0", "1"}:
            raise ValidationError(f"bad basis bitstring {s!r}")
        rows.append(sum(1 << i for i, ch in enumerate(s) if ch == "1"))
    return build_code(length, rows)
