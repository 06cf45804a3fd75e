"""Binary linear codes as bitmask rows, canonicalized by RREF.

Coordinates are bits: coordinate i of a word is bit i of its integer.
The JSON form uses bitstrings whose first character is coordinate 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from ..errors import LimitError, ValidationError


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
        if not 0 <= self.length <= 64:
            raise ValidationError("code length must be between 0 and 64")
        if self.basis != _rref_rows(self.basis, self.length):
            raise ValidationError("basis rows are not in reduced echelon form")

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
        if self.dim > 22:
            raise LimitError(f"enumerating 2^{self.dim} codewords refused")
        out = [0]
        for b in self.basis:
            out += [w ^ b for w in out]
        return out

    def __repr__(self) -> str:
        return f"BinaryCode(length={self.length}, dim={self.dim})"


def build_code(length: int, rows) -> BinaryCode:
    return BinaryCode(length, _rref_rows(rows, length))


def rref(code: BinaryCode) -> BinaryCode:
    return build_code(code.length, code.basis)


def dual_code(code: BinaryCode) -> BinaryCode:
    """All words orthogonal to the code; dim is length - dim."""
    r = code.length
    pivots = [b & -b for b in code.basis]
    pivot_mask = 0
    for p in pivots:
        pivot_mask |= p
    rows = []
    for f in range(r):
        if (1 << f) & pivot_mask:
            continue
        word = 1 << f
        for b, p in zip(code.basis, pivots):
            if b & (1 << f):
                word |= p
        rows.append(word)
    return build_code(r, rows)


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
    w = [0] * (code.length + 1)
    for word in code.words():
        w[word.bit_count()] += 1
    return w


def weight_enumerator(code: BinaryCode) -> list[int]:
    """W[j] = number of codewords of weight j; sum is 2^dim.

    Large codes are handled through the dual side and the MacWilliams
    transform, which stays exact in integers.
    """
    r = code.length
    k = code.dim
    if k <= r - k or r - k > 22:
        return _direct_enumerator(code)
    wd = _direct_enumerator(dual_code(code))
    out = []
    for j in range(r + 1):
        acc = 0
        for i in range(r + 1):
            if wd[i] == 0:
                continue
            kraw = sum((-1) ** l * comb(i, l) * comb(r - i, j - l)
                       for l in range(max(0, j - (r - i)), min(i, j) + 1))
            acc += wd[i] * kraw
        q, rem = divmod(acc, 1 << (r - k))
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
    if not isinstance(length, int):
        raise ValidationError("code length must be an integer")
    rows = []
    for s in doc["basis"]:
        if not isinstance(s, str) or len(s) != length or set(s) - {"0", "1"}:
            raise ValidationError(f"bad basis bitstring {s!r}")
        rows.append(sum(1 << i for i, ch in enumerate(s) if ch == "1"))
    return build_code(length, rows)
